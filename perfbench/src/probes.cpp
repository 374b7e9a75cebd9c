/**
 * @file
 * Layer probes of the traced run: the compile pipeline's public
 * functions timed per model, and the kernels called directly on fixed
 * zoo-derived shapes, with FLOPs from convFlops / matmulFlops.
 */

#include <functional>

#include "codegen/kernel_tuner.h"
#include "fusion/fused_executor.h"
#include "fusion/fusion_plan.h"
#include "graph/builder.h"
#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "planning/execution_plan.h"
#include "runtime/op_executor.h"
#include "workloads.h"

namespace perfbench {

using namespace sod2;

namespace {

constexpr int kCompileRepeats = 5;
/** Time budget and minimum call count per kernel probe. */
constexpr double kProbeSeconds = 0.3;
constexpr int kProbeMinCalls = 5;

/** Median seconds of @p fn over >= kProbeMinCalls calls and about
 *  kProbeSeconds, after one untimed warm-up call. */
double
medianCallSeconds(const std::function<void()>& fn)
{
    fn();
    std::vector<double> times;
    Clock::time_point start = Clock::now();
    while (times.size() < kProbeMinCalls ||
           secondsBetween(start, Clock::now()) < kProbeSeconds) {
        Clock::time_point t0 = Clock::now();
        fn();
        times.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(times);
}

/** Appends the milliseconds one call of @p fn takes to @p out. */
template <typename F>
void
timedMs(std::vector<double>* out, F&& fn)
{
    Clock::time_point t0 = Clock::now();
    fn();
    out->push_back(secondsBetween(t0, Clock::now()) * 1e3);
}

double
convGflops(const std::string& name, int64_t c, int64_t hw, int64_t o,
           int64_t k)
{
    ScopedSpan span("kernels." + name);
    Rng rng(7);
    Tensor x = Tensor::randomUniform(Shape({1, c, hw, hw}), rng);
    Tensor w = Tensor::randomUniform(Shape({o, c, k, k}), rng);
    Tensor bias = Tensor::randomUniform(Shape({o}), rng);
    Tensor out(DType::kFloat32, Shape({1, o, hw, hw}));
    const ConvVariant& variant = TunedVersions::defaults().convFor(o);
    double s = medianCallSeconds([&] {
        conv2d(x, w, &bias, &out, 1, k / 2, 1, variant);
    });
    return convFlops(x.shape(), w.shape(), out.shape(), 1) / s / 1e9;
}

double
gemmGflops(const std::string& name, int64_t m, int64_t n, int64_t k)
{
    ScopedSpan span("kernels." + name);
    Rng rng(8);
    Tensor a = Tensor::randomUniform(Shape({m, k}), rng);
    Tensor b = Tensor::randomUniform(Shape({k, n}), rng);
    Tensor c(DType::kFloat32, Shape({m, n}));
    TunedVersions versions = TunedVersions::defaults();
    const GemmVariant& variant = versions.gemmFor(m, n, k);
    double s = medianCallSeconds([&] {
        gemmF32(a.data<float>(), b.data<float>(), c.data<float>(), m, n, k,
                variant);
    });
    return matmulFlops(a.shape(), b.shape()) / s / 1e9;
}

/** Six (Add const, Sigmoid) pairs over [256, 1024], fused by RDP into
 *  one elementwise group: 12 ops per element. */
double
fusedChainGops()
{
    ScopedSpan span("kernels.fused_chain");
    constexpr int64_t kRows = 256, kCols = 1024;
    constexpr int kOps = 12;
    Graph g;
    GraphBuilder b(&g);
    ValueId h = b.input("x");
    for (int i = 0; i < kOps / 2; ++i)
        h = b.sigmoid(b.add(h, b.constScalarF32(0.1f)));
    b.output(h);
    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("c")});
    RdpResult rdp = runRdp(g, opts);
    std::vector<CompiledGroup> groups =
        compilePlan(g, buildRdpFusionPlan(g, rdp));
    Rng rng(9);
    Tensor in = Tensor::randomUniform(Shape({kRows, kCols}), rng);
    KernelConfig cfg;
    TensorAllocator alloc = heapAllocator();
    double s = medianCallSeconds([&] {
        std::vector<Tensor> env(static_cast<size_t>(g.numValues()));
        env[static_cast<size_t>(g.inputIds()[0])] = in;
        for (const CompiledGroup& cg : groups) {
            std::vector<Tensor> ext;
            for (ValueId v : cg.externalInputs())
                ext.push_back(g.value(v).isConstant()
                                  ? g.value(v).constant
                                  : env[static_cast<size_t>(v)]);
            std::vector<Tensor> outs = cg.run(g, ext, alloc, cfg);
            if (cg.kind() == GroupKind::kSingle) {
                const Node& node = g.node(cg.nodes()[0]);
                for (size_t i = 0; i < outs.size(); ++i)
                    env[static_cast<size_t>(node.outputs[i])] = outs[i];
            } else {
                env[static_cast<size_t>(cg.outputValue())] = outs[0];
            }
        }
    });
    return static_cast<double>(kOps * kRows * kCols) / s / 1e9;
}

}  // namespace

void
addCompileMetrics(Report& r, const std::vector<std::string>& models)
{
    double rdp_ms = 0, fusion_ms = 0, compile_ms = 0, sep_ms = 0,
           ctor_ms = 0;
    double groups = 0, nodes = 0;
    for (const std::string& name : models) {
        ModelSpec spec = buildSpec(name);
        const Graph& g = *spec.graph;
        std::vector<double> t_rdp, t_fusion, t_compile, t_sep, t_ctor;
        for (int rep = 0; rep < kCompileRepeats; ++rep) {
            ScopedSpan span("compile." + name);
            std::unique_ptr<RdpResult> rdp;
            timedMs(&t_rdp, [&] {
                ScopedSpan s("rdp.runRdp", -1, span.id());
                rdp = std::make_unique<RdpResult>(runRdp(g, spec.rdp));
            });
            FusionPlan fusion;
            timedMs(&t_fusion, [&] {
                ScopedSpan s("fusion.buildRdpFusionPlan", -1, span.id());
                fusion = buildRdpFusionPlan(g, *rdp);
            });
            timedMs(&t_sep, [&] {
                ScopedSpan s("planning.buildExecutionPlan", -1, span.id());
                buildExecutionPlan(g, *rdp, fusion, SepOptions{});
            });
            timedMs(&t_compile, [&] {
                ScopedSpan s("fusion.compilePlan", -1, span.id());
                compilePlan(g, fusion);
            });
            std::unique_ptr<Sod2Engine> engine;
            timedMs(&t_ctor, [&] {
                ScopedSpan s("core.engine_ctor", -1, span.id());
                engine = std::make_unique<Sod2Engine>(&g, engineOptions(spec));
            });
            if (rep == 0) {
                for (const FusionGroup& grp : engine->fusionPlan().groups) {
                    groups += 1;
                    nodes += static_cast<double>(grp.nodes.size());
                }
            }
        }
        rdp_ms += median(t_rdp);
        fusion_ms += median(t_fusion);
        sep_ms += median(t_sep);
        compile_ms += median(t_compile);
        ctor_ms += median(t_ctor);
    }
    r.put("rdp.analyze_ms", rdp_ms, "ms");
    r.put("fusion.plan_ms", fusion_ms, "ms");
    r.put("fusion.compile_ms", compile_ms, "ms");
    r.put("planning.sep_ms", sep_ms, "ms");
    r.put("core.engine_ctor_ms", ctor_ms, "ms");
    r.put("fusion.groups", groups, "count");
    r.put("fusion.nodes_per_group", groups > 0 ? nodes / groups : 0.0,
          "nodes/group");
    r.samples("compile_repeats_per_model", kCompileRepeats);
}

void
addKernelMetrics(Report& r)
{
    // Shapes from the zoo: the gated CNNs run 16-channel 3x3 convs at
    // 80x80 (640 input, stride-8 stem) and 28x28 (224 input); CodeBERT's
    // FFN up-projection at length 384 is [384, 48] x [48, 96].
    r.put("kernels.conv3x3_gflops", convGflops("conv3x3", 16, 80, 16, 3),
          "GFLOP/s");
    r.put("kernels.conv3x3_small_gflops",
          convGflops("conv3x3_small", 16, 28, 16, 3), "GFLOP/s");
    r.put("kernels.conv1x1_gflops", convGflops("conv1x1", 16, 80, 32, 1),
          "GFLOP/s");
    r.put("kernels.gemm_regular_gflops",
          gemmGflops("gemm_regular", 256, 256, 256), "GFLOP/s");
    r.put("kernels.gemm_skinny_gflops", gemmGflops("gemm_skinny", 8, 256, 256),
          "GFLOP/s");
    r.put("kernels.gemm_seq_gflops", gemmGflops("gemm_seq", 384, 96, 48),
          "GFLOP/s");
    r.put("kernels.fused_chain_gops", fusedChainGops(), "Gop/s");
}

}  // namespace perfbench
