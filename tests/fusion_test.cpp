/** Tests for fusion plans (SFusion vs RDP fusion) and the compiled
 *  fused-group executor's equivalence with the reference interpreter. */

#include <gtest/gtest.h>

#include "fusion/fused_executor.h"
#include "fusion/fusion_plan.h"
#include "graph/builder.h"
#include "runtime/interpreter.h"
#include "support/logging.h"

namespace sod2 {
namespace {

RdpOptions
symbolic2d(const std::string& name)
{
    RdpOptions opts;
    opts.inputShapes[name] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("b")});
    return opts;
}

/** Runs the graph through the plan's compiled groups and compares with
 *  the reference interpreter. */
void
expectPlanMatchesReference(const Graph& g, const FusionPlan& plan,
                           const std::vector<Tensor>& inputs)
{
    Interpreter ref(&g, {});
    auto expect = ref.run(inputs);

    // Execute the plan group by group using heap allocation.
    auto compiled = compilePlan(g, plan);
    std::vector<Tensor> env(g.numValues());
    for (size_t i = 0; i < inputs.size(); ++i)
        env[g.inputIds()[i]] = inputs[i];
    KernelConfig cfg;
    for (const auto& cg : compiled) {
        std::vector<Tensor> ext;
        for (ValueId in : cg.externalInputs()) {
            const Value& v = g.value(in);
            ext.push_back(v.isConstant() ? v.constant : env[in]);
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
    for (size_t i = 0; i < g.outputIds().size(); ++i) {
        const Tensor& got = env[g.outputIds()[i]];
        ASSERT_TRUE(got.isValid());
        EXPECT_TRUE(Tensor::allClose(got, expect[i]))
            << "output " << i << " diverges";
    }
}

TEST(FusionPlan, RdpFusesSymbolicChainStaticDoesNot)
{
    // Figure 4's exact scenario: Add(Sigmoid(A), B) with dynamic
    // shapes. A static fuser cannot prove the broadcast relation (it
    // would need 8 code versions), so the Add stays unfused; RDP's
    // symbolic equality proof fuses the whole thing into one loop.
    Graph g;
    GraphBuilder b(&g);
    ValueId a = b.input("a");
    ValueId c = b.input("c");
    b.output(b.add(b.sigmoid(a), c));

    RdpOptions opts;
    opts.inputShapes["a"] = ShapeInfo::ranked(
        {DimValue::symbol("i"), DimValue::symbol("j")});
    opts.inputShapes["c"] = ShapeInfo::ranked(
        {DimValue::symbol("i"), DimValue::symbol("j")});
    auto rdp = runRdp(g, opts);
    FusionPlan static_plan = buildStaticFusionPlan(g, rdp);
    FusionPlan rdp_plan = buildRdpFusionPlan(g, rdp);

    EXPECT_EQ(static_plan.numGroups(), 2);
    EXPECT_EQ(rdp_plan.numGroups(), 1);
    EXPECT_EQ(rdp_plan.groups[0].kind, GroupKind::kElementwiseChain);
    EXPECT_EQ(rdp_plan.fusedAwayValues(g), 1);
}

TEST(FusionPlan, StaticFusesUnaryChainsShapeObliviously)
{
    // Unary elementwise ops preserve shape by definition, so even the
    // static fuser (DNNFusion-style) fuses them under dynamic shapes.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.relu(b.sigmoid(b.tanh(x))));
    auto rdp = runRdp(g, symbolic2d("x"));
    EXPECT_EQ(buildStaticFusionPlan(g, rdp).numGroups(), 1);
}

TEST(FusionPlan, StaticFusesWhenShapesKnown)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.relu(b.sigmoid(x)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::fromConcrete({4, 8});
    auto rdp = runRdp(g, opts);
    EXPECT_EQ(buildStaticFusionPlan(g, rdp).numGroups(), 1);
}

TEST(FusionPlan, GeluDiamondFullyFuses)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.gelu(x));

    auto rdp = runRdp(g, symbolic2d("x"));
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    // gelu = mul, mul, erf, add, mul -> one group.
    EXPECT_EQ(plan.numGroups(), 1);
    EXPECT_GE(static_cast<int>(plan.groups[0].nodes.size()), 4);
}

TEST(FusionPlan, ConvEpilogueAbsorbsActivation)
{
    Graph g;
    GraphBuilder b(&g);
    Rng rng(3);
    ValueId x = b.input("x");
    ValueId w = b.weight("w", {4, 3, 3, 3}, rng);
    b.output(b.relu(b.conv2d(x, w, -1, 1, 1)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::known(3), DimValue::symbol("h"),
         DimValue::symbol("w0")});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 1);
    EXPECT_EQ(plan.groups[0].kind, GroupKind::kHeavyWithEpilogue);
}

TEST(FusionPlan, MultiConsumerValueBlocksFusion)
{
    // sigmoid(x) consumed by two nodes: it must materialize, so the
    // chain cannot absorb past it.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId s = b.sigmoid(x);
    ValueId y = b.relu(s);
    b.output(y);
    b.output(b.tanh(s));

    auto rdp = runRdp(g, symbolic2d("x"));
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    for (const auto& grp : plan.groups)
        EXPECT_EQ(grp.nodes.size(), 1u);
}

TEST(FusionPlan, GraphOutputMustMaterialize)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId s = b.sigmoid(x);
    b.output(s);  // s itself is an output
    b.output(b.relu(s));

    auto rdp = runRdp(g, symbolic2d("x"));
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    // relu cannot absorb sigmoid because s escapes as a graph output.
    EXPECT_EQ(plan.numGroups(), 2);
    EXPECT_TRUE(plan.materialized[s]);
}

TEST(FusionPlan, BroadcastOperandAllowedWhenProvable)
{
    // add(sigmoid(x), bias[1, b]) where bias's last dim symbolically
    // equals x's: provable broadcast -> fused.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId bias = b.input("bias");
    b.output(b.add(b.sigmoid(x), bias));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("b")});
    opts.inputShapes["bias"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::symbol("b")});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 1);

    // With an *unrelated* symbol the relation is unprovable: no fusion
    // across the add.
    RdpOptions opts2;
    opts2.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("b")});
    opts2.inputShapes["bias"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::symbol("c")});
    auto rdp2 = runRdp(g, opts2);
    FusionPlan plan2 = buildRdpFusionPlan(g, rdp2);
    EXPECT_EQ(plan2.numGroups(), 2);
}

TEST(FusionPlan, NeverFusesAcrossControlFlow)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId pred = b.input("pred", DType::kInt64);
    auto brs = b.switchOp(x, pred, 2);
    ValueId y = b.combine(pred, {b.relu(brs[0]), b.relu(brs[1])});
    b.output(b.sigmoid(y));

    RdpOptions opts = symbolic2d("x");
    opts.inputShapes["pred"] = ShapeInfo::fromConcrete({});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    for (const auto& grp : plan.groups) {
        for (NodeId n : grp.nodes) {
            if (g.node(n).op == kSwitchOp || g.node(n).op == kCombineOp) {
                EXPECT_EQ(grp.nodes.size(), 1u);
            }
        }
    }
}

TEST(FusedExecutor, ChainMatchesReference)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId y = b.input("y");
    b.output(b.mul(b.relu(b.add(x, y)), b.constScalarF32(0.5f)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("b")});
    opts.inputShapes["y"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("b")});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 1);

    Rng rng(11);
    expectPlanMatchesReference(
        g, plan,
        {Tensor::randomUniform(Shape({5, 7}), rng),
         Tensor::randomUniform(Shape({5, 7}), rng)});
}

TEST(FusedExecutor, GeluMatchesReference)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.gelu(x));
    auto rdp = runRdp(g, symbolic2d("x"));
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    Rng rng(12);
    expectPlanMatchesReference(
        g, plan, {Tensor::randomUniform(Shape({6, 10}), rng, -3, 3)});
}

TEST(FusedExecutor, BroadcastChainMatchesReference)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId bias = b.input("bias");
    b.output(b.tanh(b.add(b.sigmoid(x), bias)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("a"), DimValue::symbol("b")});
    opts.inputShapes["bias"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::symbol("b")});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 1);
    Rng rng(13);
    expectPlanMatchesReference(
        g, plan,
        {Tensor::randomUniform(Shape({4, 6}), rng),
         Tensor::randomUniform(Shape({1, 6}), rng)});
}

TEST(FusedExecutor, ConvEpilogueMatchesReference)
{
    Graph g;
    GraphBuilder b(&g);
    Rng rng(14);
    ValueId x = b.input("x");
    ValueId w = b.weight("w", {6, 3, 3, 3}, rng);
    ValueId bias = b.weight("bias", {6}, rng);
    ValueId conv = b.conv2d(x, w, bias, 2, 1);
    b.output(b.clip(b.leakyRelu(conv, 0.1), -0.5, 0.5));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::known(3), DimValue::symbol("h"),
         DimValue::symbol("w0")});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 1);
    expectPlanMatchesReference(
        g, plan, {Tensor::randomUniform(Shape({1, 3, 12, 10}), rng)});
}

TEST(FusedExecutor, MatMulEpilogueMatchesReference)
{
    Graph g;
    GraphBuilder b(&g);
    Rng rng(15);
    ValueId x = b.input("x");
    ValueId w = b.weight("w", {16, 8}, rng);
    ValueId half = b.constScalarF32(0.5f);
    b.output(b.relu(b.mul(b.matmul(x, w), half)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("m"), DimValue::known(16)});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 1);
    EXPECT_EQ(plan.groups[0].kind, GroupKind::kHeavyWithEpilogue);
    expectPlanMatchesReference(
        g, plan, {Tensor::randomUniform(Shape({9, 16}), rng)});
}

TEST(FusedExecutor, ResidualBlockFusesIntoConvEpilogue)
{
    // conv -> add(residual x) -> relu: the add's external operand is
    // provably the conv output's shape (RDP proof), so the whole block
    // compiles to ONE conv kernel with a flat-index epilogue. This is
    // RDP-only: under symbolic shapes SFusion cannot prove it.
    Graph g;
    GraphBuilder b(&g);
    Rng rng(23);
    ValueId x = b.input("x");
    ValueId w = b.weight("w", {4, 4, 3, 3}, rng);
    ValueId conv = b.conv2d(x, w, -1, 1, 1);  // same spatial size
    b.output(b.relu(b.add(conv, x)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::known(4), DimValue::symbol("h"),
         DimValue::symbol("w0")});
    auto rdp = runRdp(g, opts);
    FusionPlan rdp_plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(rdp_plan.numGroups(), 1);
    EXPECT_EQ(rdp_plan.groups[0].kind, GroupKind::kHeavyWithEpilogue);
    FusionPlan static_plan = buildStaticFusionPlan(g, rdp);
    EXPECT_GT(static_plan.numGroups(), 1);

    expectPlanMatchesReference(
        g, rdp_plan, {Tensor::randomUniform(Shape({1, 4, 7, 9}), rng)});
}

TEST(FusedExecutor, GeluOnMatMulSplitsAtForkedAnchor)
{
    // gelu reads the matmul result twice, so the anchor output must
    // materialize; the gelu body still merges into a single chain.
    Graph g;
    GraphBuilder b(&g);
    Rng rng(16);
    ValueId x = b.input("x");
    ValueId w = b.weight("w", {16, 8}, rng);
    b.output(b.gelu(b.matmul(x, w)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::symbol("m"), DimValue::known(16)});
    auto rdp = runRdp(g, opts);
    FusionPlan plan = buildRdpFusionPlan(g, rdp);
    EXPECT_EQ(plan.numGroups(), 2);
    expectPlanMatchesReference(
        g, plan, {Tensor::randomUniform(Shape({9, 16}), rng)});
}

}  // namespace
}  // namespace sod2
