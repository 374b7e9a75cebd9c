/** Fault-tolerant serving suite (ctest label: faults): the typed error
 *  taxonomy, run guardrails (input validation, arena budget, deadline),
 *  deterministic fault injection at every named site — serially and
 *  under 8-thread concurrent serving — and the exception-safety
 *  contract: a failed run is typed, corrupts nothing, and the very next
 *  run of the same RunContext is bit-exact with a fresh context. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "runtime/arena.h"
#include "runtime/interpreter.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/status.h"

namespace sod2 {
namespace {

/** Small dynamic CNN (mirrors concurrency_test's model): conv -> relu
 *  -> pool -> reshape -> matmul -> gelu, symbolic n/h/w. */
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

/** The typed code each site's host throws when the site fires. */
ErrorCode
expectedCode(const std::string& site)
{
    if (site == fault::kArenaAlloc)
        return ErrorCode::kArenaExhausted;
    if (site == fault::kKernelDispatch)
        return ErrorCode::kKernelFailure;
    // plan.instantiate and cache.insert surface as Internal: the
    // failure is the runtime's, not the request's.
    return ErrorCode::kInternal;
}

/** Every test leaves injection disarmed, pass or fail. */
class FaultInjectionTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

// --- taxonomy & arming semantics --------------------------------------

TEST_F(FaultInjectionTest, ErrorCodeNamesAreStable)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::kOk), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInvalidInput),
                 "invalid_input");
    EXPECT_STREQ(errorCodeName(ErrorCode::kBindFailure), "bind_failure");
    EXPECT_STREQ(errorCodeName(ErrorCode::kArenaExhausted),
                 "arena_exhausted");
    EXPECT_STREQ(errorCodeName(ErrorCode::kKernelFailure),
                 "kernel_failure");
    EXPECT_STREQ(errorCodeName(ErrorCode::kDeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInternal), "internal");
}

TEST_F(FaultInjectionTest, DefaultErrorCodeIsInternal)
{
    try {
        SOD2_THROW << "plain failure";
        FAIL() << "unreachable";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInternal);
    }
}

TEST_F(FaultInjectionTest, CatalogListsEverySite)
{
    const std::vector<std::string>& sites = fault::knownSites();
    ASSERT_EQ(sites.size(), 4u);
    for (const char* site :
         {fault::kArenaAlloc, fault::kPlanInstantiate,
          fault::kKernelDispatch, fault::kCacheInsert})
        EXPECT_NE(std::find(sites.begin(), sites.end(), site),
                  sites.end())
            << site;
}

TEST_F(FaultInjectionTest, ArmRejectsUnknownSiteAndZeroNth)
{
    try {
        fault::arm("no.such.site");
        FAIL() << "unreachable";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    }
    EXPECT_THROW(fault::arm(fault::kArenaAlloc, 0), Error);
    EXPECT_FALSE(fault::armed());
}

TEST_F(FaultInjectionTest, NthHitFiresOnceThenDisarms)
{
    uint64_t fires_before = fault::fireCount();
    fault::arm(fault::kArenaAlloc, 3);
    EXPECT_TRUE(fault::armed());
    // Hits on other sites never count against the armed site.
    EXPECT_FALSE(fault::shouldFail(fault::kKernelDispatch));
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // hit 1
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // hit 2
    EXPECT_TRUE(fault::shouldFail(fault::kArenaAlloc));   // hit 3: fire
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // one-shot
    EXPECT_EQ(fault::fireCount(), fires_before + 1);
}

TEST_F(FaultInjectionTest, PeriodicScheduleFiresEveryKthAndStaysArmed)
{
    fault::armEvery(fault::kArenaAlloc, 3);
    EXPECT_TRUE(fault::armed());
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // hit 1
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // hit 2
    EXPECT_TRUE(fault::shouldFail(fault::kArenaAlloc));   // hit 3: fire
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // hit 4
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));  // hit 5
    EXPECT_TRUE(fault::shouldFail(fault::kArenaAlloc));   // hit 6: fire
    // Periodic sites stay armed until an explicit disarm.
    EXPECT_TRUE(fault::armed());
    fault::disarm();
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));
    EXPECT_FALSE(fault::armed());
    EXPECT_THROW(fault::armEvery(fault::kArenaAlloc, 0), Error);
    EXPECT_THROW(fault::armEvery("no.such.site", 1), Error);
}

TEST_F(FaultInjectionTest, SpecArmsMultipleSitesWithMixedSchedules)
{
    fault::armSpec("arena.alloc:2,kernel.dispatch:every=2");
    std::vector<std::string> sites = fault::armedSites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0], fault::kArenaAlloc);      // sorted
    EXPECT_EQ(sites[1], fault::kKernelDispatch);

    // Each site counts its own hits independently.
    EXPECT_FALSE(fault::shouldFail(fault::kArenaAlloc));    // hit 1/2
    EXPECT_FALSE(fault::shouldFail(fault::kKernelDispatch));  // 1 % 2
    EXPECT_TRUE(fault::shouldFail(fault::kArenaAlloc));     // hit 2: fire
    EXPECT_TRUE(fault::shouldFail(fault::kKernelDispatch));   // 2 % 2

    // The one-shot entry disarmed itself; the periodic one persists.
    sites = fault::armedSites();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0], fault::kKernelDispatch);
    EXPECT_FALSE(fault::shouldFail(fault::kKernelDispatch));  // 3 % 2
    EXPECT_TRUE(fault::shouldFail(fault::kKernelDispatch));   // 4 % 2
    EXPECT_TRUE(fault::armed());
}

TEST_F(FaultInjectionTest, BadSpecRejectsWholeAndKeepsPriorArming)
{
    fault::arm(fault::kCacheInsert, 5);
    // Every malformed spec is rejected typed, with the entire spec
    // validated BEFORE any site is armed — a bad entry anywhere leaves
    // the previous arming untouched.
    for (const char* bad :
         {"", "no.such.site", "arena.alloc,no.such.site",
          "arena.alloc:0", "arena.alloc:every=0", "arena.alloc:every=",
          "arena.alloc:every=x", "arena.alloc:12junk", "arena.alloc:",
          "arena.alloc,arena.alloc", "arena.alloc,,kernel.dispatch"}) {
        try {
            fault::armSpec(bad);
            FAIL() << "spec accepted: \"" << bad << "\"";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), ErrorCode::kInvalidInput) << bad;
        }
        std::vector<std::string> sites = fault::armedSites();
        ASSERT_EQ(sites.size(), 1u) << bad;
        EXPECT_EQ(sites[0], fault::kCacheInsert) << bad;
    }
    // A good spec REPLACES all previous arming.
    fault::armSpec("plan.instantiate");
    std::vector<std::string> sites = fault::armedSites();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0], fault::kPlanInstantiate);
    EXPECT_TRUE(fault::shouldFail(fault::kPlanInstantiate));  // nth = 1
    EXPECT_FALSE(fault::armed());
}

// --- guardrails -------------------------------------------------------

TEST_F(FaultInjectionTest, InvalidInputsRejectedUpfrontByIndex)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> good = {cnnInput(1, 8, 8, 1)};
    RunContext ctx;
    auto want = snapshot(engine.run(ctx, good));

    // Wrong arity.
    RunResult r = engine.tryRun(ctx, {});
    EXPECT_EQ(r.code, ErrorCode::kInvalidInput);
    EXPECT_NE(r.message.find("expected 1, got 0"), std::string::npos)
        << r.message;

    // Wrong dtype, naming the offending input.
    r = engine.tryRun(
        ctx, {Tensor::full(DType::kInt64, Shape({1, 3, 8, 8}), 0)});
    EXPECT_EQ(r.code, ErrorCode::kInvalidInput);
    EXPECT_NE(r.message.find("input 0"), std::string::npos) << r.message;
    EXPECT_NE(r.message.find("dtype"), std::string::npos) << r.message;

    // Wrong rank.
    r = engine.tryRun(ctx,
                      {Tensor::full(DType::kFloat32, Shape({3, 8, 8}), 0)});
    EXPECT_EQ(r.code, ErrorCode::kInvalidInput);
    EXPECT_NE(r.message.find("rank"), std::string::npos) << r.message;

    // Empty tensor.
    r = engine.tryRun(ctx, {Tensor()});
    EXPECT_EQ(r.code, ErrorCode::kInvalidInput);

    // The context shrugged all four off: bit-exact with a fresh one.
    RunContext fresh;
    EXPECT_EQ(snapshot(engine.run(ctx, good)),
              snapshot(engine.run(fresh, good)));
}

TEST_F(FaultInjectionTest, ArenaBudgetYieldsTypedExhaustion)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(2, 16, 16, 2)};
    RunContext ctx;
    RunStats stats;
    auto want = snapshot(engine.run(ctx, in, &stats));
    ASSERT_GT(stats.arenaBytes, 1u);

    // A budget below the plan's requirement fails typed, before the
    // arena grows.
    RunOptions ropts;
    ropts.arenaBudgetBytes = stats.arenaBytes - 1;
    RunContext starved;
    RunResult r = engine.tryRun(starved, in, nullptr, ropts);
    EXPECT_EQ(r.code, ErrorCode::kArenaExhausted);
    EXPECT_NE(r.message.find("budget"), std::string::npos) << r.message;
    EXPECT_EQ(starved.arena().capacity(), 0u);  // never grew

    // A sufficient budget runs bit-exact; so does the starved context
    // once the cap is lifted (RunOptions is per-run).
    ropts.arenaBudgetBytes = stats.arenaBytes;
    EXPECT_EQ(snapshot(engine.run(starved, in, nullptr, ropts)), want);
    EXPECT_EQ(snapshot(engine.run(starved, in)), want);
}

TEST_F(FaultInjectionTest, DeadlineExpiryIsTypedAndRecoverable)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(1, 12, 12, 3)};
    RunContext ctx;
    auto want = snapshot(engine.run(ctx, in));

    RunOptions ropts;
    ropts.deadlineSeconds = 1e-9;  // expired by the first group
    RunResult r = engine.tryRun(ctx, in, nullptr, ropts);
    EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
    EXPECT_NE(r.message.find("deadline"), std::string::npos)
        << r.message;

    // Deadline never falls back: the budget is already spent.
    ropts.fallbackOnError = true;
    r = engine.tryRun(ctx, in, nullptr, ropts);
    EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
    EXPECT_FALSE(r.fellBack);

    EXPECT_EQ(snapshot(engine.run(ctx, in)), want);
}

TEST_F(FaultInjectionTest, InterpreterHonorsDeadline)
{
    TestModel m = TestModel::cnn();
    InterpreterOptions iopts;
    iopts.deadlineSeconds = 1e-9;
    Interpreter interp(&m.graph, iopts);
    try {
        interp.run({cnnInput(1, 8, 8, 4)});
        FAIL() << "unreachable";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    }
}

// --- fault injection, serially ----------------------------------------

class FaultSiteTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_P(FaultSiteTest, TypedErrorThenBitExactContextReuse)
{
    const std::string& site = GetParam();
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    // Reference engine: computes expectations without consuming the
    // armed fault (sites are process-global).
    Sod2Engine reference(&m.graph, opts);
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(2, 12, 16, 5)};
    RunContext ref_ctx;
    auto want = snapshot(reference.run(ref_ctx, in));

    fault::arm(site);
    RunContext ctx;
    RunResult r = engine.tryRun(ctx, in);
    ASSERT_FALSE(r.ok()) << site << " never fired";
    EXPECT_EQ(r.code, expectedCode(site)) << site;
    EXPECT_NE(r.message.find("injected fault at " + site),
              std::string::npos)
        << r.message;
    EXPECT_FALSE(fault::armed());  // one-shot: consumed

    // The same context's very next run is bit-exact with a fresh one —
    // nothing was poisoned by the unwind.
    EXPECT_EQ(snapshot(engine.run(ctx, in)), want) << site;
    RunContext fresh;
    EXPECT_EQ(snapshot(engine.run(fresh, in)), want) << site;

    // And the plan cache holds a usable entry (hit path still exact).
    RunStats stats;
    EXPECT_EQ(snapshot(engine.run(ctx, in, &stats)), want) << site;
    EXPECT_TRUE(stats.planCacheHit) << site;
}

TEST_P(FaultSiteTest, FallbackServesFaultedRequest)
{
    const std::string& site = GetParam();
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(1, 16, 12, 6)};
    Interpreter ref(&m.graph, {});
    auto expect = ref.run(in);

    fault::arm(site);
    RunOptions ropts;
    ropts.fallbackOnError = true;
    RunContext ctx;
    RunResult r = engine.tryRun(ctx, in, nullptr, ropts);
    ASSERT_TRUE(r.ok()) << site << ": " << r.message;
    EXPECT_TRUE(r.fellBack) << site;
    ASSERT_EQ(r.outputs.size(), expect.size());
    EXPECT_TRUE(Tensor::allClose(r.outputs[0], expect[0], 1e-3f, 1e-3f))
        << site;

    // Optimized path is healthy again on the same context.
    r = engine.tryRun(ctx, in, nullptr, ropts);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.fellBack);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultSiteTest, ::testing::ValuesIn(fault::knownSites()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// --- fault injection under 8-thread concurrent serving ----------------

class FaultStormTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_P(FaultStormTest, OneTypedFailureZeroCorruptionUnderEightThreads)
{
    const std::string& site = GetParam();
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine reference(&m.graph, opts);
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(2, 16, 16, 7)};
    RunContext ref_ctx;
    auto want = snapshot(reference.run(ref_ctx, in));

    fault::arm(site);
    constexpr int kThreads = 8;
    constexpr int kRounds = 4;
    std::atomic<int> failures{0};
    std::atomic<int> wrong_code{0};
    std::atomic<int> mismatches{0};
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            RunContext ctx;
            sync.arrive_and_wait();  // maximize overlap
            for (int r = 0; r < kRounds; ++r) {
                RunResult res = engine.tryRun(ctx, in);
                if (!res.ok()) {
                    failures.fetch_add(1);
                    if (res.code != expectedCode(site))
                        wrong_code.fetch_add(1);
                    // The faulted context recovers immediately,
                    // bit-exact, while the other 7 threads keep
                    // hammering the engine.
                    if (snapshot(engine.run(ctx, in)) != want)
                        mismatches.fetch_add(1);
                } else if (snapshot(res.outputs) != want) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto& th : threads)
        th.join();

    // One-shot arming: exactly one of the 32 requests failed, with the
    // site's typed code; every other request was bit-exact.
    EXPECT_EQ(failures.load(), 1) << site;
    EXPECT_EQ(wrong_code.load(), 0) << site;
    EXPECT_EQ(mismatches.load(), 0) << site;
    EXPECT_FALSE(fault::armed());

    // The cache survived un-poisoned: a post-storm run hits and is
    // still exact.
    RunStats stats;
    RunContext post;
    EXPECT_EQ(snapshot(engine.run(post, in, &stats)), want) << site;
    EXPECT_TRUE(stats.planCacheHit) << site;
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultStormTest, ::testing::ValuesIn(fault::knownSites()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// --- Arena unit guarantees --------------------------------------------

TEST_F(FaultInjectionTest, ArenaBudgetCheckedBeforeGrowth)
{
    Arena arena;
    arena.setBudget(1024);
    EXPECT_EQ(arena.budget(), 1024u);
    arena.reserve(512);
    size_t cap = arena.capacity();
    try {
        arena.reserve(4096);
        FAIL() << "unreachable";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kArenaExhausted);
        EXPECT_NE(std::string(e.what()).find("4096"),
                  std::string::npos);
    }
    // Strong guarantee: the failed reservation changed nothing.
    EXPECT_EQ(arena.capacity(), cap);
    EXPECT_EQ(arena.reserve(512), 0u);  // still fully usable
    arena.setBudget(0);
    EXPECT_GT(arena.reserve(4096), 0u);  // 0 = unlimited
}

TEST_F(FaultInjectionTest, ArenaResetSafeAfterFailedAllocation)
{
    Arena arena;
    arena.setBudget(64);
    EXPECT_THROW(arena.reserve(1 << 20), Error);
    arena.reset();
    EXPECT_EQ(arena.capacity(), 0u);
    arena.setBudget(0);
    arena.reserve(256);
    Tensor t = arena.viewAt(0, DType::kFloat32, Shape({8, 8}));
    EXPECT_TRUE(t.isValid());
}

TEST_F(FaultInjectionTest, ArenaViewBeyondCapacityIsTyped)
{
    Arena arena;
    arena.reserve(64);
    try {
        arena.viewAt(32, DType::kFloat32, Shape({8, 8}));
        FAIL() << "unreachable";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kArenaExhausted);
    }
}

// --- tryRun vs the default-context run() ------------------------------

TEST_F(FaultInjectionTest, DefaultContextTryRunMatchesRun)
{
    // tryRun in a context of its own serves what the context-less run()
    // computes in the engine's default context.
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    std::vector<Tensor> in = {cnnInput(1, 8, 8, 8)};
    RunContext ctx;
    RunResult r = engine.tryRun(ctx, in);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(r.message.empty());
    EXPECT_FALSE(r.fellBack);
    EXPECT_EQ(snapshot(r.outputs), snapshot(engine.run(in)));
}

TEST_F(FaultInjectionTest, BindFailureIsTypedAndFallsBack)
{
    // Over-strict RDP contract: the graph (relu) runs at any length,
    // but the declared shape pins the dim to 4. A length-5 request
    // fails binding typed — and the interpreter fallback, which
    // executes concretely without symbol binding, still serves it.
    Graph g;
    GraphBuilder b(&g);
    ValueId x = b.input("x");
    b.output(b.relu(x));
    RdpOptions rdp;
    rdp.inputShapes["x"] = ShapeInfo::ranked({DimValue::known(4)});

    Sod2Options opts;
    opts.rdp = rdp;
    Sod2Engine engine(&g, opts);

    Rng rng(9);
    std::vector<Tensor> in = {Tensor::randomUniform(Shape({4}), rng)};
    RunContext ctx;
    auto want = snapshot(engine.run(ctx, in));

    std::vector<Tensor> bad = {Tensor::randomUniform(Shape({5}), rng)};
    RunResult r = engine.tryRun(ctx, bad);
    EXPECT_EQ(r.code, ErrorCode::kBindFailure) << r.message;
    EXPECT_FALSE(r.fellBack);

    RunOptions ropts;
    ropts.fallbackOnError = true;
    r = engine.tryRun(ctx, bad, nullptr, ropts);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(r.fellBack);
    Interpreter ref(&g, {});
    EXPECT_TRUE(Tensor::allClose(r.outputs[0], ref.run(bad)[0]));

    EXPECT_EQ(snapshot(engine.run(ctx, in)), want);
}

}  // namespace
}  // namespace sod2
