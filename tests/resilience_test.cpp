/** Self-healing serving tests (ctest label: resilience; DESIGN.md §15):
 *  failure classification, the per-signature circuit-breaker state
 *  machine (closed -> open -> half-open -> closed, exact trip threshold
 *  under 8-thread races, probe-slot accounting), decorrelated-jitter
 *  retry backoff, bounded deadline-aware transient retries, the
 *  health()/watchdog surface, and the every-future-resolves-typed
 *  contract across non-draining shutdown and hard-cutover engine swaps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "serving/resilience.h"
#include "serving/server.h"
#include "support/fault_injection.h"
#include "support/rng.h"
#include "support/status.h"

namespace sod2 {
namespace {

using serving::BreakerHealth;
using serving::BreakerOptions;
using serving::BreakerState;
using serving::FailureClass;
using serving::Request;
using serving::RetryBackoff;
using serving::RetryOptions;
using serving::ServerHealth;
using serving::ServerOptions;
using serving::ServerStats;
using serving::SignatureScoreboard;
using serving::Sod2Server;
using serving::SwapOptions;

using Admission = SignatureScoreboard::Admission;
using Clock = SignatureScoreboard::Clock;

/** Small dynamic CNN (symbolic n/h/w): conv -> relu -> pool -> gap ->
 *  reshape -> matmul -> gelu. */
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

struct CnnFixture
{
    TestModel model = TestModel::cnn();
    Sod2Engine engine;

    CnnFixture() : engine(&model.graph, options()) {}

    static Sod2Options
    options()
    {
        TestModel m = TestModel::cnn();
        Sod2Options opts;
        opts.rdp = m.rdp;
        return opts;
    }
};

/** Every test leaves injection disarmed, pass or fail. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

/** True when @p sb's snapshot() holds a row for @p signature (the
 *  signature has an uncleared charged failure). */
bool
hasRow(const SignatureScoreboard& sb, uint64_t signature)
{
    for (const BreakerHealth& row : sb.snapshot())
        if (row.signature == signature)
            return true;
    return false;
}

/** Breaker tuning used by most scoreboard tests: explicit everywhere
 *  so the defaults (breakers off) cannot mask a regression. */
BreakerOptions
breaker(int threshold, long long cooldown_ms = 100,
        int probes_to_close = 1)
{
    BreakerOptions o;
    o.threshold = threshold;
    o.cooldownMillis = cooldown_ms;
    o.probesToClose = probes_to_close;
    return o;
}

// --- failure classification -------------------------------------------

TEST(Classification, CoversEveryErrorCode)
{
    using serving::failureClassOf;
    EXPECT_EQ(failureClassOf(ErrorCode::kOk), FailureClass::kNone);
    EXPECT_EQ(failureClassOf(ErrorCode::kInvalidInput),
              FailureClass::kRequest);
    EXPECT_EQ(failureClassOf(ErrorCode::kBindFailure),
              FailureClass::kRequest);
    EXPECT_EQ(failureClassOf(ErrorCode::kQueueFull),
              FailureClass::kOverload);
    EXPECT_EQ(failureClassOf(ErrorCode::kDeadlineExceeded),
              FailureClass::kOverload);
    EXPECT_EQ(failureClassOf(ErrorCode::kShutdown),
              FailureClass::kOverload);
    EXPECT_EQ(failureClassOf(ErrorCode::kCircuitOpen),
              FailureClass::kOverload);
    EXPECT_EQ(failureClassOf(ErrorCode::kArenaExhausted),
              FailureClass::kTransient);
    EXPECT_EQ(failureClassOf(ErrorCode::kInternal),
              FailureClass::kTransient);
    EXPECT_EQ(failureClassOf(ErrorCode::kKernelFailure),
              FailureClass::kPersistent);

    EXPECT_STREQ(serving::failureClassName(FailureClass::kNone), "none");
    EXPECT_STREQ(serving::failureClassName(FailureClass::kRequest),
                 "request");
    EXPECT_STREQ(serving::failureClassName(FailureClass::kOverload),
                 "overload");
    EXPECT_STREQ(serving::failureClassName(FailureClass::kTransient),
                 "transient");
    EXPECT_STREQ(serving::failureClassName(FailureClass::kPersistent),
                 "persistent");
}

TEST(Classification, ChargedAndRetryableSubsets)
{
    // Charged = the execution itself failed (transient + persistent).
    EXPECT_TRUE(serving::breakerCharged(ErrorCode::kArenaExhausted));
    EXPECT_TRUE(serving::breakerCharged(ErrorCode::kInternal));
    EXPECT_TRUE(serving::breakerCharged(ErrorCode::kKernelFailure));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kOk));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kInvalidInput));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kBindFailure));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kQueueFull));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kDeadlineExceeded));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kShutdown));
    EXPECT_FALSE(serving::breakerCharged(ErrorCode::kCircuitOpen));

    // Retryable = transient only: a faulting kernel never deserves a
    // second burn of the deadline.
    EXPECT_TRUE(serving::transientRetryable(ErrorCode::kArenaExhausted));
    EXPECT_TRUE(serving::transientRetryable(ErrorCode::kInternal));
    EXPECT_FALSE(
        serving::transientRetryable(ErrorCode::kKernelFailure));
    EXPECT_FALSE(serving::transientRetryable(ErrorCode::kInvalidInput));
    EXPECT_FALSE(
        serving::transientRetryable(ErrorCode::kDeadlineExceeded));
}

TEST(Classification, CircuitOpenCodeNameIsStable)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::kCircuitOpen),
                 "circuit_open");
}

// --- options ----------------------------------------------------------

TEST(Options, NegativeFieldsResolveToDefaults)
{
    // A default-constructed ServerOptions holds the built-in defaults:
    // 4 workers, 64 queue slots, shape affinity, a 100 ms watchdog, and
    // breakers and retries OFF until explicitly enabled.
    ServerOptions o;
    EXPECT_EQ(o.workers, 4);
    EXPECT_EQ(o.queueDepth, 64u);
    EXPECT_EQ(o.affinity, serving::AffinityMode::kShape);
    EXPECT_EQ(o.watchdogIntervalMillis, 100);

    EXPECT_EQ(o.breaker.threshold, 0);
    EXPECT_EQ(o.breaker.cooldownMillis, 250);
    EXPECT_EQ(o.breaker.probesToClose, 1);
    EXPECT_FALSE(o.breaker.enabled());

    EXPECT_EQ(o.retry.maxAttempts, 0);
    EXPECT_EQ(o.retry.baseMicros, 200);
    EXPECT_EQ(o.retry.capMicros, 20000);
    EXPECT_FALSE(o.retry.enabled());
}

TEST(Options, ExplicitFieldsSurviveResolutionAndClamp)
{
    // The scoreboard clamps probesToClose to at least 1: with 0, one
    // successful probe still re-closes the breaker.
    SignatureScoreboard sb(breaker(1, 100, /*probes_to_close=*/0));
    EXPECT_TRUE(sb.enabled());
    const Clock::time_point t0 = Clock::now();
    using std::chrono::milliseconds;
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(120)), Admission::kProbe);
    sb.onSuccess(0xA, /*probe=*/true, t0 + milliseconds(125));
    EXPECT_FALSE(hasRow(sb, 0xA));

    // RetryBackoff clamps the base to at least 1 us and a cap below the
    // base up to the base: every delay is then exactly the base.
    RetryOptions r;
    r.maxAttempts = 2;
    r.baseMicros = 500;
    r.capMicros = 10;
    RetryBackoff raised(r, /*seed=*/3);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(raised.nextDelayMicros(), 500);
    r.baseMicros = 0;
    r.capMicros = 0;
    RetryBackoff floored(r, /*seed=*/3);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(floored.nextDelayMicros(), 1);
}

// --- decorrelated-jitter backoff --------------------------------------

TEST(Backoff, DelaysStayWithinBaseAndCap)
{
    RetryOptions o;
    o.maxAttempts = 8;
    o.baseMicros = 100;
    o.capMicros = 1000;
    RetryBackoff backoff(o, /*seed=*/7);
    for (int i = 0; i < 64; ++i) {
        long long d = backoff.nextDelayMicros();
        EXPECT_GE(d, o.baseMicros);
        EXPECT_LE(d, o.capMicros);
    }
}

TEST(Backoff, SameSeedIsDeterministicDifferentSeedsDecorrelate)
{
    RetryOptions o;
    o.maxAttempts = 8;
    o.baseMicros = 50;
    o.capMicros = 100000;
    RetryBackoff a(o, 11), b(o, 11), c(o, 12);
    bool diverged = false;
    for (int i = 0; i < 16; ++i) {
        long long da = a.nextDelayMicros();
        EXPECT_EQ(da, b.nextDelayMicros());
        if (da != c.nextDelayMicros())
            diverged = true;
    }
    // Two requests failing together must not retry in lockstep.
    EXPECT_TRUE(diverged);
}

// --- breaker state machine --------------------------------------------

TEST(Breaker, DisabledScoreboardAdmitsEverything)
{
    SignatureScoreboard sb;  // default: threshold 0 -> off
    EXPECT_FALSE(sb.enabled());
    EXPECT_EQ(sb.admit(0xA), Admission::kAdmit);
    EXPECT_FALSE(sb.onFailure(0xA, ErrorCode::kInternal, false));
    EXPECT_FALSE(hasRow(sb, 0xA));
    EXPECT_EQ(sb.admit(0xA), Admission::kAdmit);
    EXPECT_TRUE(sb.snapshot().empty());
}

TEST(Breaker, TripsAtExactThreshold)
{
    SignatureScoreboard sb(breaker(3));
    const Clock::time_point t0 = Clock::now();
    EXPECT_FALSE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_FALSE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_EQ(sb.admit(0xA, t0), Admission::kAdmit);  // has a row, not open
    EXPECT_TRUE(hasRow(sb, 0xA));
    // Exactly the threshold-th consecutive charged failure trips.
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_EQ(sb.admit(0xA, t0), Admission::kShed);

    std::vector<BreakerHealth> rows = sb.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].signature, 0xAu);
    EXPECT_EQ(rows[0].state, BreakerState::kOpen);
    EXPECT_EQ(rows[0].consecutiveFailures, 3);
    EXPECT_EQ(rows[0].trips, 1u);
    EXPECT_EQ(rows[0].shed, 1u);

    // A success between failures resets the streak: 2 + success + 2
    // never reaches a threshold of 3.
    EXPECT_FALSE(sb.onFailure(0xB, ErrorCode::kInternal, false, t0));
    EXPECT_FALSE(sb.onFailure(0xB, ErrorCode::kInternal, false, t0));
    sb.onSuccess(0xB, false, t0);
    EXPECT_FALSE(hasRow(sb, 0xB));
    EXPECT_FALSE(sb.onFailure(0xB, ErrorCode::kInternal, false, t0));
    EXPECT_FALSE(sb.onFailure(0xB, ErrorCode::kInternal, false, t0));
    EXPECT_EQ(sb.admit(0xB, t0), Admission::kAdmit);
}

TEST(Breaker, OpenShedsUntilCooldownThenAdmitsOneProbe)
{
    SignatureScoreboard sb(breaker(1, /*cooldown_ms=*/100));
    const Clock::time_point t0 = Clock::now();
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kKernelFailure, false, t0));

    // Inside the cooldown: shed, shed, shed.
    using std::chrono::milliseconds;
    EXPECT_EQ(sb.admit(0xA, t0), Admission::kShed);
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(99)), Admission::kShed);
    ASSERT_EQ(sb.snapshot().size(), 1u);
    EXPECT_EQ(sb.snapshot()[0].shed, 2u);

    // Past the cooldown: exactly one probe; concurrent arrivals shed.
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(150)), Admission::kProbe);
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(151)), Admission::kShed);
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(152)), Admission::kShed);
    EXPECT_EQ(sb.snapshot()[0].shed, 4u);

    // Probe succeeds: fully healed, row erased.
    sb.onSuccess(0xA, /*probe=*/true, t0 + milliseconds(160));
    EXPECT_FALSE(hasRow(sb, 0xA));
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(161)), Admission::kAdmit);
    EXPECT_TRUE(sb.snapshot().empty());
}

TEST(Breaker, ProbeFailureReopensAndRestartsCooldown)
{
    SignatureScoreboard sb(breaker(1, /*cooldown_ms=*/100));
    const Clock::time_point t0 = Clock::now();
    using std::chrono::milliseconds;
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(120)), Admission::kProbe);

    // The probe proves the plan is still broken: re-open counts as a
    // trip and the cooldown restarts from the probe failure.
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, /*probe=*/true,
                             t0 + milliseconds(130)));
    ASSERT_EQ(sb.snapshot().size(), 1u);
    EXPECT_EQ(sb.snapshot()[0].trips, 2u);
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(200)), Admission::kShed);
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(231)), Admission::kProbe);
}

TEST(Breaker, ReclosingTakesProbesToCloseConsecutiveSuccesses)
{
    SignatureScoreboard sb(breaker(1, 100, /*probes_to_close=*/2));
    const Clock::time_point t0 = Clock::now();
    using std::chrono::milliseconds;
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));

    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(120)), Admission::kProbe);
    sb.onSuccess(0xA, true, t0 + milliseconds(125));
    // One success of two: still half-open, row kept.
    EXPECT_TRUE(hasRow(sb, 0xA));
    std::vector<BreakerHealth> rows = sb.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].state, BreakerState::kHalfOpen);

    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(130)), Admission::kProbe);
    sb.onSuccess(0xA, true, t0 + milliseconds(135));
    EXPECT_FALSE(hasRow(sb, 0xA));
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(140)), Admission::kAdmit);
}

TEST(Breaker, DroppedProbeReleasesTheHalfOpenSlot)
{
    SignatureScoreboard sb(breaker(1, 100));
    const Clock::time_point t0 = Clock::now();
    using std::chrono::milliseconds;
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(120)), Admission::kProbe);

    // The probe dies unrun (queue purge, shutdown): without the drop
    // report the breaker would wedge half-open forever.
    sb.onProbeDropped(0xA);
    EXPECT_EQ(sb.admit(0xA, t0 + milliseconds(121)), Admission::kProbe);
}

TEST(Breaker, UnchargedCodesNeitherTripNorHeal)
{
    SignatureScoreboard sb(breaker(2));
    const Clock::time_point t0 = Clock::now();
    // Policy sheds on a clean signature leave no trace.
    EXPECT_FALSE(
        sb.onFailure(0xA, ErrorCode::kDeadlineExceeded, false, t0));
    EXPECT_FALSE(sb.onFailure(0xA, ErrorCode::kQueueFull, false, t0));
    EXPECT_FALSE(hasRow(sb, 0xA));

    // On a signature with a row they neither extend the streak nor
    // clear it.
    EXPECT_FALSE(sb.onFailure(0xA, ErrorCode::kInternal, false, t0));
    EXPECT_FALSE(
        sb.onFailure(0xA, ErrorCode::kDeadlineExceeded, false, t0));
    std::vector<BreakerHealth> rows = sb.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].consecutiveFailures, 1);
    EXPECT_TRUE(hasRow(sb, 0xA));
}

TEST(Breaker, ExactlyOneTripUnderConcurrentFailures)
{
    // 8 threads x 4 charged failures on one signature, threshold 8:
    // the trip fires exactly once no matter how the failures
    // interleave (failures after the trip are in-flight stragglers).
    SignatureScoreboard sb(breaker(8, /*cooldown_ms=*/60000));
    constexpr int kThreads = 8;
    std::atomic<int> tripped{0};
    std::barrier gate(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            gate.arrive_and_wait();
            for (int i = 0; i < 4; ++i)
                if (sb.onFailure(0xF00D, ErrorCode::kInternal, false))
                    tripped.fetch_add(1);
        });
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(tripped.load(), 1);
    ASSERT_EQ(sb.snapshot().size(), 1u);
    EXPECT_EQ(sb.snapshot()[0].trips, 1u);
    EXPECT_EQ(sb.admit(0xF00D), Admission::kShed);
}

TEST(Breaker, ResetDropsState)
{
    SignatureScoreboard sb(breaker(1, 60000));
    EXPECT_TRUE(sb.onFailure(0xA, ErrorCode::kInternal, false));
    EXPECT_EQ(sb.admit(0xA), Admission::kShed);
    sb.reset();  // blue/green swap: the new engine starts clean
    EXPECT_FALSE(hasRow(sb, 0xA));
    EXPECT_EQ(sb.admit(0xA), Admission::kAdmit);
}

// --- watchdog predicate -----------------------------------------------

TEST(Watchdog, StuckPredicate)
{
    using serving::workerLooksStuck;
    // Idle workers and deadline-less runs are never "stuck".
    EXPECT_FALSE(workerLooksStuck(false, 100, 1000, 50));
    EXPECT_FALSE(workerLooksStuck(true, 0, 1000, 50));
    // Busy past deadline but within grace: not yet.
    EXPECT_FALSE(workerLooksStuck(true, 100, 150, 100));
    EXPECT_FALSE(workerLooksStuck(true, 100, 200, 100));
    // Past deadline + grace: stuck.
    EXPECT_TRUE(workerLooksStuck(true, 100, 201, 100));
}

// --- circuit breaker at the server level ------------------------------

TEST_F(ResilienceTest, CircuitOpensAndShedsTypedWhileOthersServe)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.breaker = breaker(2, /*cooldown_ms=*/60000);
    Sod2Server server(&f.engine, opts);

    // Warm the healthy signature BEFORE arming: its plan is cached, so
    // the periodic plan-build fault can never touch it.
    std::vector<Tensor> healthy = {cnnInput(1, 20, 20, 7)};
    ASSERT_TRUE(server.warmup(healthy));
    fault::armEvery(fault::kPlanInstantiate, 1);

    auto poison = [&] {
        Request r;
        r.inputs = {cnnInput(1, 24, 24, 9)};
        return r;
    };
    EXPECT_EQ(server.run(poison()).code, ErrorCode::kInternal);
    EXPECT_EQ(server.run(poison()).code, ErrorCode::kInternal);
    // Threshold 2 reached: the third request never executes.
    RunResult shed = server.run(poison());
    EXPECT_EQ(shed.code, ErrorCode::kCircuitOpen);
    EXPECT_NE(shed.message.find("circuit open"), std::string::npos);

    // The healthy signature keeps serving through the open breaker.
    Request h;
    h.inputs = healthy;
    EXPECT_TRUE(server.run(std::move(h)).ok());

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.breakerTrips, 1u);
    EXPECT_GE(stats.circuitShed, 1u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.completed, 1u);

    ServerHealth health = server.health();
    ASSERT_EQ(health.breakers.size(), 1u);
    EXPECT_EQ(health.breakers[0].state, BreakerState::kOpen);
    EXPECT_GE(health.errorCounts[static_cast<int>(
                  ErrorCode::kCircuitOpen)],
              1u);
    // An open breaker sheds one signature; the server is still ready.
    EXPECT_TRUE(health.ready);
}

TEST_F(ResilienceTest, CircuitRecoversViaHalfOpenProbe)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.breaker = breaker(1, /*cooldown_ms=*/50);
    Sod2Server server(&f.engine, opts);

    fault::armEvery(fault::kPlanInstantiate, 1);
    auto poison = [&] {
        Request r;
        r.inputs = {cnnInput(1, 24, 24, 21)};
        return r;
    };
    EXPECT_EQ(server.run(poison()).code, ErrorCode::kInternal);
    EXPECT_EQ(server.run(poison()).code, ErrorCode::kCircuitOpen);

    // Fault clears; after the cooldown the next request is the
    // half-open probe, succeeds, and re-closes the breaker.
    fault::disarm();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    RunResult probe = server.run(poison());
    EXPECT_TRUE(probe.ok()) << probe.message;
    EXPECT_TRUE(server.run(poison()).ok());

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.breakerProbes, 1u);
    EXPECT_EQ(stats.breakerTrips, 1u);
    EXPECT_TRUE(server.health().breakers.empty());
}

// --- bounded transient retries ----------------------------------------

TEST_F(ResilienceTest, TransientRetryHealsOneShotFault)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.retry.maxAttempts = 2;
    opts.retry.baseMicros = 100;
    opts.retry.capMicros = 500;
    Sod2Server server(&f.engine, opts);

    std::vector<Tensor> inputs = {cnnInput(1, 16, 16, 3)};
    ASSERT_TRUE(server.warmup(inputs));  // plan cached before the fault

    // One-shot arena fault: the first attempt fails kArenaExhausted,
    // the bounded retry re-runs and succeeds.
    fault::arm(fault::kArenaAlloc, 1);
    Request r;
    r.inputs = inputs;
    RunResult result = server.run(std::move(r));
    EXPECT_TRUE(result.ok()) << result.message;

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.transientRetries, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ResilienceTest, TransientRetryNeverSpendsTimeTheRequestLacks)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 1;
    // Backoff delay (200ms) far exceeds the request deadline (50ms):
    // the retry loop must bail before sleeping, not burn the budget.
    opts.retry.maxAttempts = 3;
    opts.retry.baseMicros = 200000;
    opts.retry.capMicros = 200000;
    Sod2Server server(&f.engine, opts);

    std::vector<Tensor> inputs = {cnnInput(1, 16, 16, 4)};
    ASSERT_TRUE(server.warmup(inputs));
    fault::armEvery(fault::kArenaAlloc, 1);

    Request r;
    r.inputs = inputs;
    r.deadlineSeconds = 0.05;
    RunResult result = server.run(std::move(r));
    EXPECT_EQ(result.code, ErrorCode::kArenaExhausted);
    EXPECT_EQ(server.stats().transientRetries, 0u);
}

// --- health / readiness surface ---------------------------------------

TEST_F(ResilienceTest, HealthSurfaceReflectsLifecycleAndOutcomes)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 2;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    // Paused: built but not started, so not ready (still accepting).
    ServerHealth paused = server.health();
    EXPECT_FALSE(paused.ready);
    EXPECT_FALSE(paused.started);
    EXPECT_TRUE(paused.accepting);
    ASSERT_EQ(paused.workers.size(), 2u);

    server.start();
    EXPECT_TRUE(server.health().ready);

    Request ok_req;
    ok_req.inputs = {cnnInput(1, 16, 16, 6)};
    ASSERT_TRUE(server.run(std::move(ok_req)).ok());
    Request bad_req;  // wrong arity -> typed invalid-input shed
    RunResult bad = server.run(std::move(bad_req));
    EXPECT_FALSE(bad.ok());

    // run() returns when the promise resolves, which happens just
    // before the worker's own bookkeeping (inflight, busy) settles —
    // wait for quiescence before snapshotting.
    auto quiescent = [](const ServerHealth& h) {
        if (h.inflight != 0)
            return false;
        for (const serving::WorkerHealth& w : h.workers)
            if (w.busy)
                return false;
        return true;
    };
    ServerHealth health = server.health();
    for (int spin = 0; spin < 2000 && !quiescent(health); ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        health = server.health();
    }
    EXPECT_TRUE(health.ready);
    EXPECT_EQ(health.queueDepth, 0u);
    EXPECT_EQ(health.inflight, 0u);
    EXPECT_EQ(health.errorCounts[static_cast<int>(ErrorCode::kOk)], 1u);
    EXPECT_EQ(health.errorCounts[static_cast<int>(bad.code)], 1u);
    bool any_progress = false;
    for (const serving::WorkerHealth& w : health.workers) {
        EXPECT_FALSE(w.busy);
        EXPECT_FALSE(w.stuck);
        EXPECT_EQ(w.deadlineOverrunSeconds, 0.0);
        any_progress = any_progress || w.secondsSinceProgress >= 0.0;
    }
    EXPECT_TRUE(any_progress);

    server.shutdown();
    ServerHealth down = server.health();
    EXPECT_FALSE(down.ready);
    EXPECT_FALSE(down.accepting);
}

TEST_F(ResilienceTest, ReadinessGatesDuringBlueGreenSwap)
{
    CnnFixture blue, green;
    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    Sod2Server server(&blue.engine, opts);

    // A queued request keeps the paused server un-drained, so the swap
    // (waitForDrain) blocks with swapInProgress visibly true.
    Request r;
    r.inputs = {cnnInput(1, 16, 16, 8)};
    std::future<RunResult> pending = server.submit(std::move(r));

    std::thread swapper([&] {
        SwapOptions sopts;
        sopts.waitForDrain = true;
        server.swapEngine(&green.engine, sopts);
    });
    // Poll until the swap flag is up (bounded wait, no fixed sleep).
    bool saw_gate = false;
    for (int i = 0; i < 2000; ++i) {
        ServerHealth h = server.health();
        if (h.swapInProgress) {
            saw_gate = !h.ready;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(saw_gate);  // swap in progress -> not ready

    server.start();  // lets the blue request drain; the swap completes
    swapper.join();
    EXPECT_TRUE(pending.get().ok());
    ServerHealth after = server.health();
    EXPECT_FALSE(after.swapInProgress);
    EXPECT_TRUE(after.ready);
    EXPECT_EQ(&server.engine(), &green.engine);
}

// --- every future resolves typed, never a broken promise -------------

TEST_F(ResilienceTest, PausedDiscardResolvesEveryFutureTyped)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 2;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    std::vector<std::future<RunResult>> futures;
    for (uint64_t i = 0; i < 16; ++i) {
        Request r;
        r.inputs = {cnnInput(1, 16, 16, 60 + i)};
        futures.push_back(server.submit(std::move(r)));
    }
    // Non-draining shutdown of a server whose workers never started:
    // every queued future must still resolve typed.
    server.shutdown(/*drain_pending=*/false);
    for (std::future<RunResult>& fu : futures) {
        RunResult r = fu.get();  // must not throw broken_promise
        EXPECT_EQ(r.code, ErrorCode::kShutdown);
    }
    EXPECT_EQ(server.stats().discarded, 16u);
}

TEST_F(ResilienceTest, ShutdownStormNeverBreaksAPromise)
{
    CnnFixture f;
    ServerOptions opts;
    opts.workers = 2;
    Sod2Server server(&f.engine, opts);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 24;
    std::atomic<uint64_t> resolved{0};
    std::barrier gate(kThreads + 1);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gate.arrive_and_wait();
            for (int i = 0; i < kPerThread; ++i) {
                Request r;
                r.inputs = {
                    cnnInput(1, 16, 16,
                             static_cast<uint64_t>(t * 100 + i))};
                std::future<RunResult> fu = server.submit(std::move(r));
                RunResult result = fu.get();  // typed, never throws
                (void)result.code;
                resolved.fetch_add(1);
            }
        });
    gate.arrive_and_wait();
    // Hard-stop mid-storm: submits racing the cutover must each get a
    // typed result (kShutdown or a real execution), never a broken
    // promise or a hang.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.shutdown(/*drain_pending=*/false);
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(resolved.load(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, resolved.load());
    EXPECT_EQ(stats.submitted,
              stats.completed + stats.failed + stats.shed +
                  stats.expired + stats.discarded);
}

TEST_F(ResilienceTest, HardCutoverStormNeverBreaksAPromise)
{
    CnnFixture blue, green;
    ServerOptions opts;
    opts.workers = 2;
    Sod2Server server(&blue.engine, opts);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 16;
    std::atomic<uint64_t> resolved{0};
    std::barrier gate(kThreads + 1);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gate.arrive_and_wait();
            for (int i = 0; i < kPerThread; ++i) {
                Request r;
                r.inputs = {
                    cnnInput(1, 16, 16,
                             static_cast<uint64_t>(t * 100 + i))};
                RunResult result = server.run(std::move(r));
                // A queued blue request may be shed by the cutover
                // (typed Shutdown) or execute on either engine; it may
                // never vanish.
                (void)result.code;
                resolved.fetch_add(1);
            }
        });
    gate.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SwapOptions sopts;
    sopts.hardCutover = true;
    sopts.waitForDrain = true;
    server.swapEngine(&green.engine, sopts);
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(resolved.load(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(&server.engine(), &green.engine);
    // The server still serves after the cutover.
    Request after;
    after.inputs = {cnnInput(1, 16, 16, 99)};
    EXPECT_TRUE(server.run(std::move(after)).ok());
}

}  // namespace
}  // namespace sod2
