/** Tests for the shape-signature plan cache: hit/miss/eviction
 *  accounting, LRU behavior under tight capacities, interaction with
 *  control flow and the validate-every-plan debug switch, and bit-exact
 *  output equivalence between cached and uncached runs across the model
 *  zoo. */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/plan_cache.h"
#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "models/model_zoo.h"
#include "runtime/interpreter.h"
#include "support/fault_injection.h"
#include "support/logging.h"

namespace sod2 {
namespace {

/** Small dynamic CNN (mirrors engine_test's model): conv -> relu ->
 *  pool -> reshape -> matmul -> gelu, symbolic n/h/w. */
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
        ValueId gap = b.globalAvgPool(p1);
        ValueId flat = b.reshape(gap, {0, -1});
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

Tensor
cnnInput(int64_t n, int64_t h, int64_t w, uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randomUniform(Shape({n, 3, h, w}), rng);
}

/** Byte-exact copy of a run's outputs (they may alias the arena, which
 *  the next run overwrites). */
std::vector<std::vector<uint8_t>>
snapshot(const std::vector<Tensor>& outputs)
{
    std::vector<std::vector<uint8_t>> bytes;
    bytes.reserve(outputs.size());
    for (const Tensor& t : outputs) {
        const uint8_t* p = static_cast<const uint8_t*>(t.raw());
        bytes.emplace_back(p, p + t.byteSize());
    }
    return bytes;
}

TEST(PlanCache, RepeatedSignatureHits)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    Tensor in = cnnInput(2, 16, 20, 7);
    RunStats stats;

    const PlanCache& cache = *engine.planCache();

    engine.run({in}, &stats);
    EXPECT_FALSE(stats.planCacheHit);
    EXPECT_EQ(cache.counters().hits, 0u);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().evictions, 0u);

    engine.run({in}, &stats);
    EXPECT_TRUE(stats.planCacheHit);
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);

    // A different tensor with the same shape is the same signature.
    engine.run({cnnInput(2, 16, 20, 8)}, &stats);
    EXPECT_TRUE(stats.planCacheHit);
    EXPECT_EQ(cache.counters().hits, 2u);
    EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(PlanCache, DistinctSignaturesMiss)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    RunStats stats;
    engine.run({cnnInput(1, 8, 8, 1)}, &stats);
    engine.run({cnnInput(1, 8, 12, 2)}, &stats);
    engine.run({cnnInput(2, 8, 8, 3)}, &stats);
    PlanCache::Counters c = engine.planCache()->counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 3u);
    EXPECT_EQ(c.evictions, 0u);
}

TEST(PlanCache, CapacityOneAlternatingThrashes)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.planCacheCapacity = 1;
    Sod2Engine engine(&m.graph, opts);

    Tensor a = cnnInput(1, 8, 8, 11);
    Tensor b = cnnInput(1, 12, 12, 12);

    RunStats stats;
    engine.run({a}, &stats);  // miss (A resident)
    engine.run({b}, &stats);  // miss, evicts A
    engine.run({a}, &stats);  // miss, evicts B
    engine.run({b}, &stats);  // miss, evicts A
    const PlanCache& cache = *engine.planCache();
    EXPECT_EQ(cache.counters().hits, 0u);
    EXPECT_EQ(cache.counters().misses, 4u);
    EXPECT_EQ(cache.counters().evictions, 3u);

    engine.run({b}, &stats);  // B resident: hit
    EXPECT_TRUE(stats.planCacheHit);
    EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(PlanCache, LruEvictsLeastRecentlyUsed)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.planCacheCapacity = 2;
    Sod2Engine engine(&m.graph, opts);

    Tensor a = cnnInput(1, 8, 8, 21);
    Tensor b = cnnInput(1, 12, 12, 22);
    Tensor c = cnnInput(1, 16, 16, 23);

    RunStats stats;
    engine.run({a}, &stats);  // miss: {A}
    engine.run({b}, &stats);  // miss: {B, A}
    engine.run({a}, &stats);  // hit, bumps A: {A, B}
    engine.run({c}, &stats);  // miss, evicts B: {C, A}
    const PlanCache& cache = *engine.planCache();
    EXPECT_EQ(cache.counters().evictions, 1u);
    engine.run({a}, &stats);  // hit: A survived because it was bumped
    EXPECT_TRUE(stats.planCacheHit);
    engine.run({b}, &stats);  // miss: B was the LRU victim
    EXPECT_FALSE(stats.planCacheHit);
    EXPECT_EQ(cache.counters().hits, 2u);
    EXPECT_EQ(cache.counters().misses, 4u);
    EXPECT_EQ(cache.counters().evictions, 2u);
}

TEST(PlanCache, DisabledCacheReportsNothingAndStaysCorrect)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.planCacheCapacity = 0;
    Sod2Engine engine(&m.graph, opts);
    Interpreter ref(&m.graph, {});

    // No cache, so no counters to report.
    EXPECT_EQ(engine.planCache(), nullptr);
    Tensor in = cnnInput(2, 16, 16, 31);
    RunStats stats;
    for (int i = 0; i < 3; ++i) {
        auto got = engine.run({in}, &stats);
        EXPECT_FALSE(stats.planCacheHit);
        auto expect = ref.run({in});
        EXPECT_TRUE(Tensor::allClose(got[0], expect[0]));
    }
}

TEST(PlanCache, CachedHitSelectsLiveBranch)
{
    // Same shape signature, different predicate: the cached plan must
    // not pin the executed path — branch selection stays per-run.
    TestModel m = TestModel::gated();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);
    Interpreter ref(&m.graph, {});

    Rng rng(51);
    Tensor x = Tensor::randomUniform(Shape({4, 16}), rng);
    RunStats stats;
    for (int64_t pred : {0, 1, 0, 1}) {
        Tensor p = Tensor::scalarInt64(pred);
        auto got = engine.run({x, p}, &stats);
        auto expect = ref.run({x, p});
        EXPECT_TRUE(Tensor::allClose(got[0], expect[0]))
            << "pred=" << pred;
    }
    PlanCache::Counters c = engine.planCache()->counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 3u);
}

TEST(PlanCache, ValidateEveryPlanChecksCachedRuns)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.validateEveryPlan = true;
    Sod2Engine engine(&m.graph, opts);

    RunStats stats;
    for (int i = 0; i < 3; ++i)
        engine.run({cnnInput(1, 16, 16, 41)}, &stats);
    // validation ran on each hit
    EXPECT_EQ(engine.planCache()->counters().hits, 2u);
}

// --- last-plan memo across eviction ----------------------------------

TEST(ContextMemo, ServesAcrossEvictionBitExact)
{
    // Capacity-1 cache: context 2 running B evicts A. Context 1's memo
    // still holds A's plan, and a plan is a pure function of the engine
    // and the binding, so the memo keeps serving it: context 1's next
    // run of A takes no shared lookup and instantiates nothing.
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.planCacheCapacity = 1;
    Sod2Engine engine(&m.graph, opts);

    Tensor a = cnnInput(2, 16, 20, 7);
    Tensor b = cnnInput(1, 8, 12, 8);
    RunContext ctx1, ctx2;
    RunStats stats;

    engine.run(ctx1, {a}, &stats);  // miss: insert A, fill ctx1's memo
    engine.run(ctx2, {b}, &stats);  // miss: insert B, evict A
    EXPECT_EQ(engine.planCache()->counters().evictions, 1u);

    PlanCache::Counters before = engine.planCache()->counters();
    auto got = snapshot(engine.run(ctx1, {a}, &stats));
    PlanCache::Counters after = engine.planCache()->counters();
    EXPECT_TRUE(stats.planCacheHit);
    EXPECT_EQ(after.contextHits, before.contextHits + 1);
    EXPECT_EQ(after.misses, before.misses);

    RunContext fresh;
    EXPECT_EQ(got, snapshot(engine.run(fresh, {a})));
}

// --- RunStats semantics audit ----------------------------------------

TEST(RunStatsAudit, HitPathPlanSecondsCollapses)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    Tensor in = cnnInput(2, 16, 16, 61);
    RunStats miss_stats, hit_stats;
    engine.run({in}, &miss_stats);
    engine.run({in}, &hit_stats);
    ASSERT_TRUE(hit_stats.planCacheHit);
    // A hit replaces interval evaluation + placement + MVC selection
    // with one hash lookup; bind + lookup stay well under a
    // millisecond on any host this suite runs on.
    EXPECT_LT(hit_stats.planSeconds, 1e-3);
    EXPECT_GE(hit_stats.planSeconds, 0.0);
}

TEST(RunStatsAudit, HitAfterOutlierReportsPlanRequirementNotCapacity)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    RunContext ctx;
    std::vector<Tensor> small = {cnnInput(1, 8, 8, 62)};
    std::vector<Tensor> big = {cnnInput(4, 64, 64, 63)};

    RunStats stats;
    engine.run(ctx, small, &stats);
    size_t small_req = stats.arenaBytes;
    engine.run(ctx, big, &stats);
    ASSERT_GT(stats.arenaBytes, small_req);

    // Plan-cache *hit* on the small signature while the context arena
    // still holds the outlier's capacity: arenaBytes must report the
    // plan's requirement, not the inflated capacity.
    engine.run(ctx, small, &stats);
    ASSERT_TRUE(stats.planCacheHit);
    EXPECT_EQ(stats.arenaBytes, small_req);
    EXPECT_GE(ctx.arena().capacity(), small_req);
}

TEST(RunStatsAudit, DisabledCacheZeroesReusedStats)
{
    TestModel m = TestModel::cnn();
    Sod2Options cached_opts;
    cached_opts.rdp = m.rdp;
    Sod2Engine cached(&m.graph, cached_opts);
    Sod2Options uncached_opts;
    uncached_opts.rdp = m.rdp;
    uncached_opts.planCacheCapacity = 0;
    Sod2Engine uncached(&m.graph, uncached_opts);

    Tensor in = cnnInput(1, 8, 8, 64);
    RunStats stats;
    cached.run({in}, &stats);
    cached.run({in}, &stats);
    ASSERT_TRUE(stats.planCacheHit);

    // Reusing the same RunStats with a cache-less engine must not leak
    // the cached engine's hit through.
    uncached.run({in}, &stats);
    EXPECT_FALSE(stats.planCacheHit);
    EXPECT_EQ(uncached.planCache(), nullptr);
}

TEST(RunStatsAudit, GroupSecondsBreakdownMatchesSubgraphTotals)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    RunStats stats;
    engine.run({cnnInput(2, 16, 16, 68)}, &stats);
    ASSERT_EQ(stats.groupSeconds.size(),
              static_cast<size_t>(engine.fusionPlan().numGroups()));
    double group_total = 0, subgraph_total = 0;
    for (double s : stats.groupSeconds) {
        EXPECT_GE(s, 0.0);
        group_total += s;
    }
    for (double s : stats.subgraphSeconds)
        subgraph_total += s;
    // Same attribution, two groupings of the same per-group samples.
    EXPECT_NEAR(group_total, subgraph_total,
                1e-9 + 1e-6 * subgraph_total);
}

TEST(PlanCacheUnit, InsertFindEvict)
{
    PlanCache cache(2);
    auto sig = [](int64_t v) {
        return canonicalBindingSignature({{"s", v}});
    };
    auto find = [&](int64_t v) {
        auto s = sig(v);
        return cache.find(s.hash, {v});
    };
    auto insert = [&](int64_t v) {
        cache.insert(sig(v).hash, {v}, std::make_shared<PlanInstance>());
    };

    EXPECT_EQ(find(1), nullptr);
    insert(1);
    insert(2);
    EXPECT_NE(find(1), nullptr);  // bumps 1
    insert(3);                    // evicts 2
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(find(2), nullptr);
    EXPECT_NE(find(1), nullptr);
    EXPECT_NE(find(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(BindingSignatureTest, CanonicalAndHashable)
{
    auto a = canonicalBindingSignature({{"h", 8}, {"n", 2}});
    auto b = canonicalBindingSignature({{"n", 2}, {"h", 8}});
    auto c = canonicalBindingSignature({{"n", 2}, {"h", 9}});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.toString(), "{h=8, n=2}");

    auto empty = canonicalBindingSignature({});
    EXPECT_NE(empty, a);
    EXPECT_EQ(empty.toString(), "{}");
}

// --- leader failure under injected faults -----------------------------

/** Every test leaves fault injection disarmed, pass or fail. */
class PlanCacheFaults : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(PlanCacheFaults, InsertFaultFailsLeaderLeavesCacheClean)
{
    PlanCache cache(2);
    fault::arm(fault::kCacheInsert);
    bool instantiated = false;
    try {
        cache.findOrInstantiate(
            1, {1}, [] { return std::make_shared<const PlanInstance>(); },
            &instantiated);
        FAIL() << "unreachable";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInternal);
        EXPECT_NE(std::string(e.what()).find(fault::kCacheInsert),
                  std::string::npos);
    }
    // The plan itself was built; only publishing it to the LRU failed,
    // and a failed insert mutates nothing.
    EXPECT_TRUE(instantiated);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(fault::armed());

    // The signature is not wedged: the next miss instantiates and
    // caches normally.
    auto plan = cache.findOrInstantiate(
        1, {1}, [] { return std::make_shared<const PlanInstance>(); },
        &instantiated);
    EXPECT_NE(plan, nullptr);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.counters().misses, 2u);
}

TEST_F(PlanCacheFaults, InsertFaultStillPublishesPlanToWaiters)
{
    PlanCache cache(4);
    fault::arm(fault::kCacheInsert);
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::atomic<int> wrong_code{0};
    std::atomic<int> instantiations{0};
    std::vector<std::shared_ptr<const PlanInstance>> got(kThreads);
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sync.arrive_and_wait();
            try {
                got[t] = cache.findOrInstantiate(42, {7}, [&] {
                    instantiations.fetch_add(1);
                    // Hold the flight open so the other threads join.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    return std::make_shared<const PlanInstance>();
                });
            } catch (const Error& e) {
                failures.fetch_add(1);
                if (e.code() != ErrorCode::kInternal)
                    wrong_code.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();

    // Exactly the leader failed (typed); the plan is still valid, so
    // all 7 waiters were served the one shared instance.
    EXPECT_EQ(failures.load(), 1);
    EXPECT_EQ(wrong_code.load(), 0);
    EXPECT_EQ(instantiations.load(), 1);
    int served = 0;
    std::shared_ptr<const PlanInstance> shared;
    for (const auto& p : got)
        if (p) {
            ++served;
            if (!shared)
                shared = p;
            EXPECT_EQ(p, shared);
        }
    EXPECT_EQ(served, kThreads - 1);
    // No poisoned entry: the failed insert left the cache untouched.
    EXPECT_EQ(cache.size(), 0u);
    auto plan = cache.findOrInstantiate(42, {7}, [] {
        return std::make_shared<const PlanInstance>();
    });
    EXPECT_NE(plan, nullptr);
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(PlanCacheFaults, DirectInsertFaultIsTypedAndClean)
{
    PlanCache cache(2);
    cache.insert(canonicalBindingSignature({{"s", 1}}).hash, {1},
                 std::make_shared<PlanInstance>());
    fault::arm(fault::kCacheInsert);
    EXPECT_THROW(
        cache.insert(canonicalBindingSignature({{"s", 2}}).hash, {2},
                     std::make_shared<PlanInstance>()),
        Error);
    // The resident entry and the LRU stayed intact.
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_NE(cache.find(canonicalBindingSignature({{"s", 1}}).hash, {1}),
              nullptr);
}

TEST_F(PlanCacheFaults, InstantiateFaultDoesNotWedgeSignature)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    fault::arm(fault::kPlanInstantiate);
    RunContext ctx;
    std::vector<Tensor> in = {cnnInput(1, 8, 8, 91)};
    RunResult r = engine.tryRun(ctx, in);
    EXPECT_EQ(r.code, ErrorCode::kInternal);
    EXPECT_EQ(engine.planCache()->size(), 0u);

    // The same context and signature recover on the very next run, and
    // the rebuilt plan caches normally.
    RunStats stats;
    auto got = engine.run(ctx, in, &stats);
    EXPECT_FALSE(stats.planCacheHit);
    RunContext fresh;
    EXPECT_EQ(snapshot(got), snapshot(engine.run(fresh, in)));
    engine.run(ctx, in, &stats);
    EXPECT_TRUE(stats.planCacheHit);
}

/** Cached and uncached engines must produce bit-identical outputs on
 *  repeated-shape streams, for every model in the zoo. */
class PlanCacheZooTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(PlanCacheZooTest, CachedBitExactMatchesUncached)
{
    Rng build_rng(1234);
    ModelSpec spec = buildModel(GetParam(), build_rng);

    Sod2Options cached_opts;
    cached_opts.rdp = spec.rdp;
    Sod2Engine cached(spec.graph.get(), cached_opts);

    Sod2Options uncached_opts;
    uncached_opts.rdp = spec.rdp;
    uncached_opts.planCacheCapacity = 0;
    Sod2Engine uncached(spec.graph.get(), uncached_opts);

    // Two cheap-but-distinct shape signatures per model.
    int64_t s1 = spec.legalizeSize(spec.minSize);
    int64_t s2 = spec.legalizeSize(spec.minSize + spec.sizeMultiple);
    RunStats stats;
    for (int64_t hint : {s1, s2}) {
        Rng rng(100 + static_cast<uint64_t>(hint));
        auto inputs = spec.sample(rng, hint);
        // Two passes per input: the cached engine's second pass is a
        // plan-cache hit and must still match byte-for-byte.
        for (int pass = 0; pass < 2; ++pass) {
            auto want = snapshot(uncached.run(inputs, &stats));
            EXPECT_FALSE(stats.planCacheHit);
            auto got = snapshot(cached.run(inputs, &stats));
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], want[i])
                    << spec.name << " output " << i << " pass " << pass;
        }
        RunStats cstats;
        cached.run(inputs, &cstats);
        EXPECT_TRUE(cstats.planCacheHit) << spec.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PlanCacheZooTest,
    ::testing::ValuesIn(allModelNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

}  // namespace
}  // namespace sod2
