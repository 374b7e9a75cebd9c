/** Tests for static execution planning (SEP): nac partitioning, order
 *  search, and peak-memory improvements over the naive order. */

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.h"
#include "planning/execution_plan.h"
#include "support/logging.h"

namespace sod2 {
namespace {

RdpOptions
staticInput(const std::string& name, const std::vector<int64_t>& dims)
{
    RdpOptions opts;
    opts.inputShapes[name] = ShapeInfo::fromConcrete(dims);
    return opts;
}

/** Checks that @p order respects group dependencies. */
void
expectTopological(const Graph& g, const FusionPlan& fusion,
                  const std::vector<int>& order)
{
    std::vector<int> pos(fusion.numGroups());
    for (size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    std::vector<int> group_of_value(g.numValues(), -1);
    for (int gi = 0; gi < fusion.numGroups(); ++gi)
        for (NodeId n : fusion.groups[gi].nodes)
            for (ValueId v : g.node(n).outputs)
                group_of_value[v] = gi;
    for (int gi = 0; gi < fusion.numGroups(); ++gi) {
        for (NodeId n : fusion.groups[gi].nodes) {
            for (ValueId in : g.node(n).inputs) {
                int pg = group_of_value[in];
                if (pg >= 0 && pg != gi) {
                    EXPECT_LT(pos[pg], pos[gi])
                        << "dependency violated";
                }
            }
        }
    }
}

TEST(Sep, SingleChainKeepsOrder)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.relu(b.sigmoid(b.tanh(x))));
    auto rdp = runRdp(g, staticInput("x", {4, 4}));
    FusionPlan fusion = buildNoFusionPlan(g);
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, {});
    EXPECT_EQ(plan.order.size(), 3u);
    expectTopological(g, fusion, plan.order);
    EXPECT_EQ(plan.subgraphs[0].cls, SubgraphClass::kAllKnown);
}

TEST(Sep, ReordersToReduceMemory)
{
    // Diamond where one branch produces a huge intermediate and the
    // other a tiny one: running the tiny branch first while the huge one
    // is live is worse; the planner must schedule the big branch's
    // consumer as early as possible.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");                  // [8, 8]
    ValueId big = b.tile(x, b.constI64({8, 8}));   // [64, 64] big
    ValueId big2 = b.relu(big);
    ValueId big3 = b.reduceMean(big2, {0, 1}, false);  // scalar
    ValueId tiny = b.reduceMean(x, {0, 1}, false);     // scalar
    b.output(b.add(big3, tiny));

    auto rdp = runRdp(g, staticInput("x", {8, 8}));
    FusionPlan fusion = buildNoFusionPlan(g);
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, {});
    expectTopological(g, fusion, plan.order);

    // The big chain (tile -> relu -> reduce) should complete before the
    // tiny reduce runs, so the big tensors die early. Verify the tiny
    // reduce is scheduled after the big reduce.
    int big3_group = -1, tiny_group = -1;
    for (int gi = 0; gi < fusion.numGroups(); ++gi) {
        for (NodeId n : fusion.groups[gi].nodes) {
            for (ValueId v : g.node(n).outputs) {
                if (v == big3)
                    big3_group = gi;
                if (v == tiny)
                    tiny_group = gi;
            }
        }
    }
    auto pos = [&](int grp) {
        return std::find(plan.order.begin(), plan.order.end(), grp) -
               plan.order.begin();
    };
    EXPECT_LT(pos(big3_group), pos(tiny_group));
}

TEST(Sep, NacBoundaryPartitions)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    ValueId pre = b.relu(x);
    ValueId nz = b.nonZero(pre);         // EDO: nac boundary
    ValueId post = b.cast(nz, DType::kFloat32);
    b.output(post);
    b.output(b.sigmoid(pre));

    auto rdp = runRdp(g, staticInput("x", {4}));
    FusionPlan fusion = buildNoFusionPlan(g);
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, {});
    // NonZero and its dependents are nac; the clean part is plannable.
    ASSERT_GE(plan.numSubgraphs(), 2);
    bool saw_nac = false, saw_known = false;
    for (const auto& sg : plan.subgraphs) {
        if (sg.cls == SubgraphClass::kNac)
            saw_nac = true;
        if (sg.cls == SubgraphClass::kAllKnown)
            saw_known = true;
    }
    EXPECT_TRUE(saw_nac);
    EXPECT_TRUE(saw_known);
    expectTopological(g, fusion, plan.order);
}

TEST(Sep, MixedConstClassAndVersionCount)
{
    Graph g;
    GraphBuilder b(&g);
    Rng rng(31);
    ValueId x = b.input("x");
    ValueId w = b.weight("w", {8, 3, 3, 3}, rng);
    b.output(b.relu(b.conv2d(x, w, -1, 2, 1)));

    RdpOptions opts;
    opts.inputShapes["x"] = ShapeInfo::ranked(
        {DimValue::known(1), DimValue::known(3), DimValue::symbol("h"),
         DimValue::symbol("w0")});
    auto rdp = runRdp(g, opts);
    FusionPlan fusion = buildNoFusionPlan(g);
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, {});
    ASSERT_EQ(plan.numSubgraphs(), 1);
    EXPECT_EQ(plan.subgraphs[0].cls, SubgraphClass::kMixedConst);
    EXPECT_GE(plan.subgraphs[0].versionsNeeded, 2);
    expectTopological(g, fusion, plan.order);
}

TEST(Sep, DisabledKeepsIdentityOrder)
{
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.relu(b.sigmoid(x)));
    auto rdp = runRdp(g, staticInput("x", {2, 2}));
    FusionPlan fusion = buildNoFusionPlan(g);
    SepOptions off;
    off.enable = false;
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, off);
    for (size_t i = 0; i < plan.order.size(); ++i)
        EXPECT_EQ(plan.order[i], static_cast<int>(i));
}

TEST(Sep, LargeSubgraphFallsBackToGreedy)
{
    // 20 parallel branches exceed the exhaustive limit; the greedy
    // scheduler must still produce a valid topological order.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    std::vector<ValueId> branches;
    for (int i = 0; i < 20; ++i)
        branches.push_back(b.reduceMean(b.relu(x), {0, 1}, true));
    ValueId acc = branches[0];
    for (int i = 1; i < 20; ++i)
        acc = b.add(acc, branches[i]);
    b.output(acc);

    auto rdp = runRdp(g, staticInput("x", {16, 16}));
    FusionPlan fusion = buildNoFusionPlan(g);
    SepOptions opts;
    opts.exhaustiveLimit = 6;
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, opts);
    expectTopological(g, fusion, plan.order);
    EXPECT_EQ(plan.order.size(),
              static_cast<size_t>(fusion.numGroups()));
}

/** Property sweep: plans over random DAGs are always valid topological
 *  orders covering every group exactly once. */
class SepRandomDagTest : public ::testing::TestWithParam<int> {};

TEST_P(SepRandomDagTest, ValidPermutation)
{
    Rng rng(GetParam());
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    std::vector<ValueId> values = {x};
    int nodes = static_cast<int>(rng.uniformInt(3, 18));
    for (int i = 0; i < nodes; ++i) {
        ValueId a = values[rng.uniformInt(0, values.size() - 1)];
        if (rng.bernoulli(0.5f)) {
            values.push_back(b.relu(a));
        } else {
            ValueId c = values[rng.uniformInt(0, values.size() - 1)];
            values.push_back(b.add(a, c));
        }
    }
    b.output(values.back());

    auto rdp = runRdp(g, staticInput("x", {4, 4}));
    FusionPlan fusion = buildNoFusionPlan(g);
    ExecutionPlan plan = buildExecutionPlan(g, rdp, fusion, {});
    ASSERT_EQ(plan.order.size(), static_cast<size_t>(fusion.numGroups()));
    std::vector<int> sorted = plan.order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < fusion.numGroups(); ++i)
        EXPECT_EQ(sorted[i], i);
    expectTopological(g, fusion, plan.order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SepRandomDagTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace sod2
