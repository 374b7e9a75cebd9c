/** Concurrency invariants for the compile-once/serve-many split: one
 *  compiled Sod2Engine driven from N threads (one RunContext each) must
 *  be bit-exact with the serial run, plan-cache misses on one signature
 *  must single-flight to exactly one instantiation, eviction while runs
 *  are in flight must stay safe, the context arena must shed outlier
 *  capacity, and the OpRegistry must reject registration after the
 *  first engine compile. */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/plan_cache.h"
#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "models/model_zoo.h"
#include "ops/op_registry.h"
#include "support/logging.h"
#include "support/trace.h"

namespace sod2 {
namespace {

/** Small dynamic CNN (mirrors plan_cache_test's model): conv -> relu ->
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
};

Tensor
cnnInput(int64_t n, int64_t h, int64_t w, uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randomUniform(Shape({n, 3, h, w}), rng);
}

/** Byte-exact copy of a run's outputs (they may alias the context
 *  arena, which that context's next run remaps). */
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

TEST(Concurrency, EightThreadsBitExactAcrossSignatures)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    // Four shape signatures, inputs shared read-only across threads.
    std::vector<std::vector<Tensor>> inputs;
    inputs.push_back({cnnInput(1, 8, 8, 1)});
    inputs.push_back({cnnInput(2, 12, 8, 2)});
    inputs.push_back({cnnInput(1, 16, 20, 3)});
    inputs.push_back({cnnInput(3, 8, 12, 4)});

    // Serial reference, one dedicated context.
    std::vector<std::vector<std::vector<uint8_t>>> want;
    RunContext ref_ctx;
    for (const auto& in : inputs)
        want.push_back(snapshot(engine.run(ref_ctx, in)));

    constexpr int kThreads = 8;
    constexpr int kRounds = 6;
    std::atomic<int> mismatches{0};
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            RunContext ctx;
            sync.arrive_and_wait();  // maximize overlap
            for (int r = 0; r < kRounds; ++r) {
                // Every thread walks the signatures with its own phase
                // so hits, misses, and arena re-reservations interleave.
                size_t i = (r + t) % inputs.size();
                auto got = snapshot(engine.run(ctx, inputs[i]));
                if (got != want[i])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);

    // Serial again after the storm: still bit-exact.
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(snapshot(engine.run(ref_ctx, inputs[i])), want[i]);
}

TEST(Concurrency, StampedeSingleFlightInstantiatesOnce)
{
    PlanCache cache(4);
    constexpr int kThreads = 8;
    std::atomic<int> instantiations{0};
    std::barrier sync(kThreads);
    std::vector<std::shared_ptr<const PlanInstance>> got(kThreads);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sync.arrive_and_wait();
            got[t] = cache.findOrInstantiate(
                /*hash=*/42, /*values=*/{7, 9}, [&] {
                    instantiations.fetch_add(1);
                    // Hold the flight open long enough for the other
                    // threads to arrive and coalesce.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    return std::make_shared<const PlanInstance>();
                });
        });
    }
    for (auto& th : threads)
        th.join();

    EXPECT_EQ(instantiations.load(), 1);
    PlanCache::Counters c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits + c.coalesced, static_cast<size_t>(kThreads - 1));
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t], got[0]);  // one shared instance
}

TEST(Concurrency, StampedeEngineLevelSingleMiss)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(2, 16, 16, 5)};
    constexpr int kThreads = 8;
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            RunContext ctx;
            sync.arrive_and_wait();
            engine.run(ctx, in);
        });
    }
    for (auto& th : threads)
        th.join();

    const PlanCache* cache = engine.planCache();
    ASSERT_NE(cache, nullptr);
    // However the 8 first-runs interleave, one signature instantiates
    // exactly once; everyone else hit the entry or joined the flight.
    PlanCache::Counters c = cache->counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits + c.coalesced, static_cast<size_t>(kThreads - 1));
}

TEST(Concurrency, LeaderFailureLetsWaitersRecover)
{
    PlanCache cache(2);
    bool instantiated = false;
    EXPECT_THROW(cache.findOrInstantiate(
                     1, {1},
                     []() -> std::shared_ptr<const PlanInstance> {
                         throw Error("instantiation failed");
                     },
                     &instantiated),
                 Error);
    EXPECT_FALSE(instantiated);
    // The failed flight must not wedge the signature.
    auto plan = cache.findOrInstantiate(
        1, {1}, [] { return std::make_shared<const PlanInstance>(); },
        &instantiated);
    EXPECT_NE(plan, nullptr);
    EXPECT_TRUE(instantiated);
    EXPECT_EQ(cache.counters().misses, 2u);
}

TEST(Concurrency, EvictionDuringInFlightRunsStaysBitExact)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.planCacheCapacity = 1;  // every other signature evicts
    Sod2Engine engine(&m.graph, opts);

    std::vector<std::vector<Tensor>> inputs;
    inputs.push_back({cnnInput(1, 8, 8, 11)});
    inputs.push_back({cnnInput(1, 12, 12, 12)});
    inputs.push_back({cnnInput(2, 8, 12, 13)});

    std::vector<std::vector<std::vector<uint8_t>>> want;
    RunContext ref_ctx;
    for (const auto& in : inputs)
        want.push_back(snapshot(engine.run(ref_ctx, in)));

    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::atomic<int> mismatches{0};
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            RunContext ctx;
            sync.arrive_and_wait();
            for (int r = 0; r < kRounds; ++r) {
                size_t i = (r + t) % inputs.size();
                // A plan evicted while this run holds it must stay
                // alive (shared_ptr) and correct to the end.
                auto got = snapshot(engine.run(ctx, inputs[i]));
                if (got != want[i])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(engine.planCache()->counters().evictions, 0u);
}

TEST(Concurrency, ContextRebindsAcrossEngines)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine a(&m.graph, opts);
    Sod2Options no_dmp = opts;
    no_dmp.enableDmp = false;  // engine B needs the fallback pool
    Sod2Engine b(&m.graph, no_dmp);

    std::vector<Tensor> in = {cnnInput(1, 8, 8, 21)};
    RunContext ref_a, ref_b;
    auto want_a = snapshot(a.run(ref_a, in));
    auto want_b = snapshot(b.run(ref_b, in));

    RunContext ctx;
    EXPECT_EQ(ctx.boundEngine(), nullptr);
    EXPECT_EQ(snapshot(a.run(ctx, in)), want_a);
    EXPECT_EQ(ctx.boundEngine(), &a);
    EXPECT_EQ(snapshot(b.run(ctx, in)), want_b);
    EXPECT_EQ(ctx.boundEngine(), &b);
    EXPECT_EQ(snapshot(a.run(ctx, in)), want_a);
}

TEST(Concurrency, ArenaTrimShedsOutlierCapacityAcrossRuns)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    RunContext ctx;
    std::vector<Tensor> small = {cnnInput(1, 8, 8, 31)};
    std::vector<Tensor> big = {cnnInput(4, 64, 64, 32)};

    RunStats stats;
    engine.run(ctx, small, &stats);
    size_t small_req = stats.arenaBytes;
    engine.run(ctx, big, &stats);
    size_t big_req = stats.arenaBytes;
    ASSERT_GT(big_req, Arena::kTrimFactor * small_req);
    EXPECT_EQ(ctx.arena().capacity(), big_req);

    // RunStats reports the plan's requirement, never the inflated
    // capacity left behind by the outlier.
    engine.run(ctx, small, &stats);
    EXPECT_EQ(stats.arenaBytes, small_req);
    EXPECT_GE(ctx.arena().capacity(), big_req);  // not trimmed yet

    // Once the outlier ages out of the high-water window, capacity
    // falls back to what the small signature needs.
    for (int i = 0; i < 2 * Arena::kTrimWindow + 1; ++i)
        engine.run(ctx, small, &stats);
    EXPECT_GE(ctx.arena().trimCount(), 1u);
    EXPECT_EQ(ctx.arena().capacity(), small_req);
    EXPECT_EQ(stats.arenaBytes, small_req);

    // And the trimmed arena still produces bit-exact results.
    RunContext fresh;
    EXPECT_EQ(snapshot(engine.run(ctx, small)),
              snapshot(engine.run(fresh, small)));
}

/** Regression for the Logger::threshold_ data race surfaced by
 *  concurrent serving: setThreshold from a control thread while worker
 *  threads filter log levels must be race-free (threshold_ is an
 *  atomic now). Run under the tsan preset to make the check bite. */
TEST(Concurrency, LoggerThresholdToggleRacesLoggers)
{
    Logger& logger = Logger::instance();
    LogLevel before = logger.threshold();

    constexpr int kLoggers = 4;
    constexpr int kRounds = 200;
    std::barrier sync(kLoggers + 1);
    std::atomic<bool> stop{false};

    std::thread toggler([&] {
        sync.arrive_and_wait();
        for (int i = 0; i < kRounds; ++i)
            logger.setThreshold(i % 2 ? LogLevel::kError
                                      : LogLevel::kWarn);
        stop.store(true);
    });
    std::vector<std::thread> loggers;
    for (int t = 0; t < kLoggers; ++t) {
        loggers.emplace_back([&] {
            sync.arrive_and_wait();
            while (!stop.load()) {
                // kDebug is below both toggled thresholds, so the race
                // window (threshold load) is exercised without spamming
                // stderr.
                logger.log(LogLevel::kDebug, "filtered");
            }
        });
    }
    toggler.join();
    for (auto& th : loggers)
        th.join();

    logger.setThreshold(before);
    LogLevel after = logger.threshold();
    EXPECT_TRUE(after == LogLevel::kWarn || after == LogLevel::kError ||
                after == before);
}

/** Trace writers racing a concurrent export: the export must see a
 *  clean snapshot (no torn events), and no appends are lost. */
TEST(Concurrency, TraceExportRacesWriters)
{
    Trace::clear();
    Trace::setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kEvents = 500;
    std::barrier sync(kThreads + 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TraceBuffer& tb = Trace::threadBuffer();
            tb.setLaneName("writer-" + std::to_string(t));
            sync.arrive_and_wait();
            for (int i = 0; i < kEvents; ++i) {
                double ts = Trace::nowUs();
                tb.addComplete("ev", "test", ts, 1.0,
                               "\"i\":" + std::to_string(i));
            }
        });
    }
    sync.arrive_and_wait();
    // Export concurrently with the writers several times.
    for (int i = 0; i < 8; ++i) {
        std::string json = Trace::exportJsonString();
        EXPECT_FALSE(json.empty());
    }
    for (auto& th : threads)
        th.join();
    EXPECT_GE(Trace::totalEventCount(),
              static_cast<size_t>(kThreads * kEvents));
    Trace::setEnabled(false);
    Trace::clear();
}

/** counters() is one lock-consistent snapshot: under concurrent
 *  lookups, hits + misses + coalesced never exceeds lookups started
 *  and the invariant holds inside every snapshot. */
TEST(Concurrency, PlanCacheCountersSnapshotIsConsistent)
{
    PlanCache cache(4);
    constexpr int kThreads = 4;
    constexpr int kLookups = 400;
    std::barrier sync(kThreads + 1);
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sync.arrive_and_wait();
            for (int i = 0; i < kLookups; ++i) {
                uint64_t key = static_cast<uint64_t>(i % 8);
                cache.findOrInstantiate(
                    key, {static_cast<int64_t>(key)}, [] {
                        return std::make_shared<const PlanInstance>();
                    });
            }
        });
    }
    sync.arrive_and_wait();
    size_t total = static_cast<size_t>(kThreads) * kLookups;
    while (!done.load()) {
        PlanCache::Counters c = cache.counters();
        // Completed lookups at snapshot time can never exceed the
        // total issued; the three outcome counters partition them.
        EXPECT_LE(c.hits + c.misses + c.coalesced, total);
        if (c.hits + c.misses + c.coalesced == total)
            done.store(true);
    }
    for (auto& th : threads)
        th.join();
    PlanCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses + c.coalesced, total);
    EXPECT_GE(c.misses, 8u);  // at least one per distinct signature
}

TEST(Concurrency, RegistryFrozenAfterEngineCompile)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    EXPECT_TRUE(OpRegistry::instance().frozen());
    OpDef late;
    late.name = "LateCustomOp";
    late.forward = [](InferContext&) {};
    EXPECT_THROW(OpRegistry::instance().add(std::move(late)), Error);
    // Lookups are unaffected.
    EXPECT_NE(OpRegistry::instance().find("MatMul"), nullptr);
}

/** 8 threads x the whole model zoo: the acceptance bar for the
 *  compile-once/serve-many claim. */
class ConcurrencyZooTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(ConcurrencyZooTest, EightThreadBitExactVsSerial)
{
    Rng build_rng(1234);
    ModelSpec spec = buildModel(GetParam(), build_rng);
    Sod2Options opts;
    opts.rdp = spec.rdp;
    Sod2Engine engine(spec.graph.get(), opts);

    // Two cheap-but-distinct shape signatures per model.
    int64_t s1 = spec.legalizeSize(spec.minSize);
    int64_t s2 = spec.legalizeSize(spec.minSize + spec.sizeMultiple);
    std::vector<std::vector<Tensor>> inputs;
    std::vector<std::vector<std::vector<uint8_t>>> want;
    RunContext ref_ctx;
    for (int64_t hint : {s1, s2}) {
        Rng rng(100 + static_cast<uint64_t>(hint));
        inputs.push_back(spec.sample(rng, hint));
        want.push_back(snapshot(engine.run(ref_ctx, inputs.back())));
    }

    constexpr int kThreads = 8;
    std::atomic<int> mismatches{0};
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            RunContext ctx;
            sync.arrive_and_wait();
            for (int r = 0; r < 4; ++r) {
                size_t i = (r + t) % inputs.size();
                if (snapshot(engine.run(ctx, inputs[i])) != want[i])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ConcurrencyZooTest,
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
