/**
 * @file
 * Google-benchmark microbenchmarks for the analysis and kernel layers:
 * RDP fixpoint cost per model, symbolic expression arithmetic, GEMM
 * variants by shape class, fused-chain vs unfused elementwise
 * execution, the memory planners, and the vectorized Softmax rows against
 * its scalar reference. Run with SOD2_NUM_THREADS=1 for single-thread
 * kernel numbers.
 */

#include <benchmark/benchmark.h>

#include "codegen/kernel_tuner.h"
#include "fusion/fused_executor.h"
#include "graph/builder.h"
#include "kernels/gemm.h"
#include "kernels/reduce.h"
#include "memory/planners.h"
#include "models/model_zoo.h"
#include "runtime/interpreter.h"

namespace sod2 {
namespace {

void
BM_RdpAnalysis(benchmark::State& state, const std::string& model)
{
    Rng rng(1);
    ModelSpec spec = buildModel(model, rng);
    for (auto _ : state) {
        auto result = runRdp(*spec.graph, spec.rdp);
        benchmark::DoNotOptimize(result.iterations());
    }
    state.SetLabel(model + " (" + std::to_string(spec.graph->numNodes()) +
                   " nodes)");
}

BENCHMARK_CAPTURE(BM_RdpAnalysis, codebert, std::string("CodeBERT"));
BENCHMARK_CAPTURE(BM_RdpAnalysis, yolov6, std::string("YOLO-V6"));
BENCHMARK_CAPTURE(BM_RdpAnalysis, skipnet, std::string("SkipNet"));

void
BM_SymExprArithmetic(benchmark::State& state)
{
    SymExprPtr s = SymExpr::symbol("s");
    for (auto _ : state) {
        SymExprPtr e = s;
        for (int i = 0; i < 16; ++i)
            e = symFloorDiv(e + SymExpr::constant(2),
                            SymExpr::constant(2)) *
                SymExpr::constant(3);
        benchmark::DoNotOptimize(e->evaluate({{"s", 224}}));
    }
}
BENCHMARK(BM_SymExprArithmetic);

void
BM_GemmByShapeClass(benchmark::State& state)
{
    int64_t m = state.range(0);
    int64_t n = state.range(1);
    int64_t k = state.range(2);
    Rng rng(2);
    Tensor a = Tensor::randomUniform(Shape({m, k}), rng);
    Tensor b = Tensor::randomUniform(Shape({k, n}), rng);
    Tensor c(DType::kFloat32, Shape({m, n}));
    TunedVersions v = TunedVersions::defaults();
    const GemmVariant& variant = v.gemmFor(m, n, k);
    for (auto _ : state) {
        gemmF32(a.data<float>(), b.data<float>(), c.data<float>(), m, n,
                k, variant);
        benchmark::DoNotOptimize(c.raw());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmByShapeClass)
    ->Args({8, 256, 256})    // skinny
    ->Args({256, 256, 256})  // regular
    ->Args({2048, 32, 256}); // fat

void
BM_FusedChainVsUnfused(benchmark::State& state)
{
    bool fused = state.range(0) != 0;
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId h = x;
    for (int i = 0; i < 6; ++i)
        h = b.sigmoid(b.add(h, b.constScalarF32(0.1f)));
    b.output(h);

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("c")});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = fused ? buildRdpFusionPlan(g, rdp)
                            : buildNoFusionPlan(g);
    auto compiled = compilePlan(g, plan);
    Rng rng(3);
    Tensor in = Tensor::randomUniform(Shape({256, 1024}), rng);
    KernelConfig cfg;

    for (auto _ : state) {
        std::vector<Tensor> env(g.numValues());
        env[g.inputIds()[0]] = in;
        for (const auto& cg : compiled) {
            std::vector<Tensor> ext;
            for (ValueId vid : cg.externalInputs()) {
                const Value& v = g.value(vid);
                ext.push_back(v.isConstant() ? v.constant : env[vid]);
            }
            auto outs = cg.run(g, ext, heapAllocator(), cfg);
            if (cg.kind() == GroupKind::kSingle) {
                const Node& node = g.node(cg.nodes()[0]);
                for (size_t i = 0; i < outs.size(); ++i)
                    env[node.outputs[i]] = outs[i];
            } else {
                env[cg.outputValue()] = outs[0];
            }
        }
        benchmark::DoNotOptimize(env.back().raw());
    }
    state.SetLabel(fused ? "fused (1 group)" : "unfused (12 nodes)");
}
BENCHMARK(BM_FusedChainVsUnfused)->Arg(0)->Arg(1);

void
BM_MemoryPlanners(benchmark::State& state)
{
    // Realistic interval population from CodeBERT.
    Rng rng(1);
    ModelSpec spec = buildModel("CodeBERT", rng);
    auto rdp = runRdp(*spec.graph, spec.rdp);
    Rng s(9);
    auto inputs = spec.sample(s, 128);
    std::vector<Shape> shapes;
    for (const auto& t : inputs)
        shapes.push_back(t.shape());
    auto bindings = bindInputSymbols(*spec.graph, spec.rdp, shapes);
    auto intervals = computeLifetimes(*spec.graph, rdp,
                                      spec.graph->topoOrder(), bindings);
    bool peak_outward = state.range(0) != 0;
    for (auto _ : state) {
        MemPlan plan = peak_outward ? planPeakOutward(intervals)
                                    : planGreedyBestFit(intervals);
        benchmark::DoNotOptimize(plan.arenaBytes);
    }
    state.SetLabel((peak_outward ? "peak-outward" : "greedy-best-fit") +
                   std::string(" over ") +
                   std::to_string(intervals.size()) + " tensors");
}
BENCHMARK(BM_MemoryPlanners)->Arg(0)->Arg(1);

/** Softmax over [1, 4, T, T] attention scores (CodeBERT's shape), the
 *  dispatched kernel (Arg 1 = 1) or softmaxReference (0). */
void
BM_Softmax(benchmark::State& state)
{
    int64_t t = state.range(0);
    bool vector = state.range(1) != 0;
    Rng rng(5);
    Tensor x =
        Tensor::randomUniform(Shape({1, 4, t, t}), rng, -8.0f, 8.0f);
    Tensor y(DType::kFloat32, x.shape());
    for (auto _ : state) {
        if (vector)
            softmax(x, -1, &y);
        else
            softmaxReference(x, -1, &y);
        benchmark::DoNotOptimize(y.raw());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * x.numElements());
}
BENCHMARK(BM_Softmax)->ArgsProduct({{64, 384}, {0, 1}});

}  // namespace
}  // namespace sod2

BENCHMARK_MAIN();
