/** Tests for the serving scheduler (src/serving): admission control and
 *  typed load shedding, deadline-aware dispatch (in-queue expiry vs
 *  mid-run cooperative expiry), shape-affinity routing and its warm
 *  last-plan-memo payoff, graceful drain/shutdown semantics, and
 *  bit-exact equivalence between served and directly-run results under
 *  a multi-threaded mixed-signature storm. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "serving/affinity.h"
#include "serving/request_queue.h"
#include "serving/server.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/metrics.h"

namespace sod2 {
namespace {

using serving::AffinityMode;
using serving::Pending;
using serving::Request;
using serving::RequestQueue;
using serving::ServerOptions;
using serving::ServerStats;
using serving::Sod2Server;

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

/** Byte-exact copy of a run's outputs. */
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

/** Engine + the four shape signatures the tests route between. */
struct ServingFixture
{
    TestModel model = TestModel::cnn();
    Sod2Engine engine;

    ServingFixture() : engine(&model.graph, options()) {}

    static Sod2Options
    options()
    {
        TestModel m = TestModel::cnn();
        Sod2Options opts;
        opts.rdp = m.rdp;
        return opts;
    }

    explicit ServingFixture(Sod2Options opts)
        : engine(&model.graph, opts)
    {}

    /** The i-th of four distinct shape signatures (data from @p seed). */
    Tensor
    input(int which, uint64_t seed) const
    {
        static const int64_t kHeights[] = {12, 16, 20, 24};
        return cnnInput(1 + which % 2, kHeights[which % 4],
                        kHeights[(which + 1) % 4], seed);
    }
};

// --- engine satellite API ---------------------------------------------

TEST(Signature, SameShapeSameSignatureDifferentShapeDiffers)
{
    ServingFixture f;
    uint64_t a = f.engine.signatureFor({cnnInput(2, 16, 20, 7)});
    uint64_t b = f.engine.signatureFor({cnnInput(2, 16, 20, 99)});
    uint64_t c = f.engine.signatureFor({cnnInput(2, 18, 20, 7)});
    EXPECT_EQ(a, b);  // same shapes, different data
    EXPECT_NE(a, c);  // different shapes
}

TEST(Signature, ValidatesLikeRun)
{
    ServingFixture f;
    try {
        f.engine.signatureFor({});  // wrong arity
        FAIL() << "expected a typed Error";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    }
}

TEST(Warmup, PreInstantiatesWithoutExecuting)
{
    ServingFixture f;
    Tensor in = cnnInput(2, 16, 20, 7);
    ASSERT_TRUE(f.engine.warmup({in}));
    ASSERT_NE(f.engine.planCache(), nullptr);
    PlanCache::Counters after_warm = f.engine.planCache()->counters();
    EXPECT_EQ(after_warm.misses, 1u);  // warmup instantiated the plan

    RunStats stats;
    f.engine.run({in}, &stats);
    EXPECT_TRUE(stats.planCacheHit);  // first real run is already warm
}

TEST(Warmup, ReturnsFalseWhenCacheDisabled)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    opts.planCacheCapacity = 0;
    Sod2Engine engine(&m.graph, opts);
    EXPECT_FALSE(engine.warmup({cnnInput(2, 16, 20, 7)}));
}

// --- basic serving ----------------------------------------------------

TEST(Server, SubmitIsBitExactAgainstDirectRun)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 2;
    Sod2Server server(&f.engine, opts);

    Tensor in = cnnInput(2, 16, 20, 7);
    Request req;
    req.inputs = {in};
    RunResult served = server.submit(std::move(req)).get();
    ASSERT_TRUE(served.ok()) << served.message;

    RunContext direct;
    auto expect = snapshot(f.engine.run(direct, {in}));
    EXPECT_EQ(snapshot(served.outputs), expect);
}

TEST(Server, SynchronousRun)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);

    Request req;
    req.inputs = {cnnInput(1, 12, 16, 3)};
    RunResult r = server.run(std::move(req));
    EXPECT_TRUE(r.ok()) << r.message;
    EXPECT_FALSE(r.outputs.empty());
}

TEST(Server, InvalidInputShedTypedWithoutQueueing)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);

    Request req;  // wrong arity: no inputs
    RunResult r = server.run(std::move(req));
    EXPECT_EQ(r.code, ErrorCode::kInvalidInput);
    ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.admitted, 0u);
}

TEST(Server, ResultsOutliveWorkerReuse)
{
    // Outputs must be deep copies: the engine's outputs alias the
    // worker context's arena, which the very next run overwrites.
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);

    Request first;
    first.inputs = {cnnInput(2, 16, 20, 7)};
    RunResult held = server.submit(std::move(first)).get();
    ASSERT_TRUE(held.ok());
    auto before = snapshot(held.outputs);

    for (int i = 0; i < 8; ++i) {
        Request next;
        next.inputs = {cnnInput(1 + i % 2, 12 + 4 * (i % 3), 16, 100 + i)};
        ASSERT_TRUE(server.submit(std::move(next)).get().ok());
    }
    EXPECT_EQ(snapshot(held.outputs), before);
}

// --- admission control ------------------------------------------------

TEST(Admission, QueueFullShedsTyped)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.queueDepth = 2;
    opts.startPaused = true;  // nothing dequeues: fills deterministically
    Sod2Server server(&f.engine, opts);

    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 3; ++i) {
        Request req;
        req.inputs = {cnnInput(2, 16, 20, 10 + i)};
        futures.push_back(server.submit(std::move(req)));
    }
    RunResult shed = futures[2].get();  // ready immediately: shed
    EXPECT_EQ(shed.code, ErrorCode::kQueueFull);
    EXPECT_FALSE(shed.message.empty());

    ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.admitted, 2u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.queueDepth, 2u);

    server.start();
    server.drain();
    EXPECT_TRUE(futures[0].get().ok());
    EXPECT_TRUE(futures[1].get().ok());
}

TEST(Admission, BytesBudgetShedsButAdmitsWhenAlone)
{
    ServingFixture f;
    Tensor big = cnnInput(2, 24, 24, 1);
    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    opts.queueBytesBudget = big.byteSize() / 2;  // smaller than one input
    Sod2Server server(&f.engine, opts);

    // Admit-when-alone: an oversized request at an empty queue is
    // admitted regardless, so it is never permanently unservable.
    Request first;
    first.inputs = {big};
    auto f1 = server.submit(std::move(first));

    Request second;
    second.inputs = {cnnInput(1, 12, 16, 2)};
    RunResult shed = server.submit(std::move(second)).get();
    EXPECT_EQ(shed.code, ErrorCode::kQueueFull);

    server.start();
    server.drain();
    EXPECT_TRUE(f1.get().ok());
    ServerStats s = server.stats();
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.shed, 1u);
}

// --- deadlines --------------------------------------------------------

TEST(Deadline, ExpiredInQueueShedsTypedWithoutExecuting)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    Request req;
    req.inputs = {cnnInput(2, 16, 20, 7)};
    req.deadlineSeconds = 0.005;
    auto future = server.submit(std::move(req));
    std::this_thread::sleep_for(std::chrono::milliseconds(25));

    server.start();
    server.drain();
    RunResult r = future.get();
    EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
    EXPECT_NE(r.message.find("without executing"), std::string::npos);

    // Proof it never executed: the plan cache saw no traffic at all.
    ASSERT_NE(f.engine.planCache(), nullptr);
    PlanCache::Counters c = f.engine.planCache()->counters();
    EXPECT_EQ(c.hits + c.misses + c.coalesced, 0u);
    ServerStats s = server.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.completed, 0u);
}

TEST(Deadline, MidRunExpirySurfacesCooperativeEngineError)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    // Tiny cooperative deadline on every run: admission and dequeue
    // happen instantly, but the engine's own group-boundary check trips
    // mid-run — the server must surface that error unchanged.
    opts.defaultRunOptions.deadlineSeconds = 1e-12;
    Sod2Server server(&f.engine, opts);

    Request req;
    req.inputs = {cnnInput(2, 16, 20, 7)};
    RunResult r = server.run(std::move(req));
    EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);
    EXPECT_NE(r.message.find("before group"), std::string::npos)
        << "expected the engine's cooperative-deadline message, got: "
        << r.message;
    ServerStats s = server.stats();
    EXPECT_EQ(s.expired, 0u);  // not an in-queue shed
    EXPECT_EQ(s.failed, 1u);
}

TEST(Deadline, GenerousDeadlineCompletes)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);

    Request req;
    req.inputs = {cnnInput(2, 16, 20, 7)};
    req.deadlineSeconds = 60.0;
    RunResult r = server.run(std::move(req));
    EXPECT_TRUE(r.ok()) << r.message;
}

// --- fault injection under the server ---------------------------------

class ServerFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(ServerFaultTest, PlanFaultShedsTypedWithoutFallback)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);

    fault::arm(fault::kPlanInstantiate);
    Request req;
    req.inputs = {cnnInput(2, 16, 20, 7)};
    RunResult r = server.run(std::move(req));
    EXPECT_EQ(r.code, ErrorCode::kInternal);
    EXPECT_FALSE(r.fellBack);
    EXPECT_EQ(server.stats().failed, 1u);
}

TEST_F(ServerFaultTest, PlanFaultFallsBackWhenRequested)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);

    Tensor in = cnnInput(2, 16, 20, 7);
    fault::arm(fault::kPlanInstantiate);
    Request req;
    req.inputs = {in};
    req.fallbackOnError = true;
    RunResult r = server.run(std::move(req));
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(r.fellBack);
    EXPECT_EQ(server.stats().completed, 1u);

    // The fallback interpreter's answer matches the optimized path.
    RunContext direct;
    EXPECT_EQ(snapshot(r.outputs),
              snapshot(f.engine.run(direct, {in})));
}

// --- affinity routing -------------------------------------------------

TEST(Affinity, ParseAndNames)
{
    EXPECT_EQ(serving::parseAffinityMode("shape"), AffinityMode::kShape);
    EXPECT_EQ(serving::parseAffinityMode("round_robin"),
              AffinityMode::kRoundRobin);
    EXPECT_EQ(serving::parseAffinityMode("least_loaded"),
              AffinityMode::kLeastLoaded);
    EXPECT_STREQ(serving::affinityModeName(AffinityMode::kShape), "shape");
    try {
        serving::parseAffinityMode("bogus");
        FAIL() << "expected a typed Error";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
    }
}

TEST(Affinity, ShapeModeIsStickyAndSpreads)
{
    serving::AffinityPolicy policy(AffinityMode::kShape, 3);
    size_t a = policy.pick(111, {});
    size_t b = policy.pick(222, {});
    size_t c = policy.pick(333, {});
    // First-seen rotation: three distinct signatures cover all workers.
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
    // Sticky: repeats route identically.
    EXPECT_EQ(policy.pick(111, {}), a);
    EXPECT_EQ(policy.pick(222, {}), b);
}

TEST(Affinity, LeastLoadedPicksSmallest)
{
    serving::AffinityPolicy policy(AffinityMode::kLeastLoaded, 3);
    EXPECT_EQ(policy.pick(1, {5, 2, 9}), 1u);
    EXPECT_EQ(policy.pick(2, {0, 0, 0}), 0u);  // ties to lowest index
}

TEST(Affinity, ServerRoutesSameSignatureToSameWorker)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 4;
    opts.affinity = AffinityMode::kShape;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    uint64_t sig_a = f.engine.signatureFor({f.input(0, 1)});
    uint64_t sig_b = f.engine.signatureFor({f.input(1, 1)});
    size_t worker_a = server.workerFor(sig_a);
    size_t worker_b = server.workerFor(sig_b);
    EXPECT_NE(worker_a, worker_b);
    EXPECT_EQ(server.workerFor(sig_a), worker_a);
    EXPECT_EQ(server.workerFor(sig_b), worker_b);
}

TEST(Affinity, ShapeAffinityBeatsRoundRobinOnContextHits)
{
    // Stream A,A,B,B,... over 2 workers. Shape affinity pins A and B
    // each to one worker, so nearly every run reuses the worker's
    // last-plan memo; round-robin interleaves A and B on both workers
    // and never gets a memo hit. Each server gets its own engine so
    // the plan-cache counters are independent. Batching is pinned off:
    // the coalescer would reorder same-signature requests back-to-back
    // and hand round-robin memo hits, hiding the routing effect this
    // test isolates (batching has its own suite, batching_test.cpp).
    auto runStream = [](AffinityMode mode) {
        ServingFixture f;
        ServerOptions opts;
        opts.workers = 2;
        opts.maxBatchSize = 1;
        opts.affinity = mode;
        Sod2Server server(&f.engine, opts);
        std::vector<std::future<RunResult>> futures;
        for (int i = 0; i < 16; ++i) {
            Request req;
            req.inputs = {f.input((i / 2) % 2, 40 + i)};
            futures.push_back(server.submit(std::move(req)));
        }
        for (auto& fut : futures)
            EXPECT_TRUE(fut.get().ok());
        server.drain();
        return f.engine.planCache()->contextHits();
    };

    size_t affinity_hits = runStream(AffinityMode::kShape);
    size_t rr_hits = runStream(AffinityMode::kRoundRobin);
    EXPECT_GT(affinity_hits, rr_hits);
    // Each worker's first run fills its memo; the other 14 runs reuse it.
    EXPECT_EQ(affinity_hits, 14u);
    EXPECT_EQ(rr_hits, 0u);
}

// --- queue semantics --------------------------------------------------

TEST(Queue, PriorityDescFifoWithin)
{
    RequestQueue q;
    auto make = [](int priority, uint64_t seq) {
        Pending p;
        p.priority = priority;
        p.seq = seq;
        return p;
    };
    ASSERT_TRUE(q.push(make(0, 1)));
    ASSERT_TRUE(q.push(make(5, 2)));
    ASSERT_TRUE(q.push(make(1, 3)));
    ASSERT_TRUE(q.push(make(5, 4)));

    Pending p;
    ASSERT_TRUE(q.pop(&p));
    EXPECT_EQ(p.seq, 2u);  // highest priority first
    ASSERT_TRUE(q.pop(&p));
    EXPECT_EQ(p.seq, 4u);  // FIFO within priority 5
    ASSERT_TRUE(q.pop(&p));
    EXPECT_EQ(p.seq, 3u);
    ASSERT_TRUE(q.pop(&p));
    EXPECT_EQ(p.seq, 1u);
}

TEST(Queue, CloseDrainsThenReportsEmpty)
{
    RequestQueue q;
    Pending a;
    a.seq = 1;
    ASSERT_TRUE(q.push(std::move(a)));
    q.close();
    Pending b;
    b.seq = 2;
    EXPECT_FALSE(q.push(std::move(b)));  // closed: rejected

    Pending out;
    EXPECT_TRUE(q.pop(&out));  // drain-on-close still yields item 1
    EXPECT_EQ(out.seq, 1u);
    EXPECT_FALSE(q.pop(&out));  // closed and empty
}

TEST(Server, HighPriorityRunsFirst)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    // Low priority enqueued first, high priority second; on start the
    // single worker must pop the high one first (the ordering itself
    // is asserted by Queue.PriorityDescFifoWithin — here we prove the
    // server accepts and completes a reordered queue).
    Request low;
    low.inputs = {f.input(0, 1)};
    low.priority = 0;
    Request high;
    high.inputs = {f.input(1, 2)};
    high.priority = 9;
    auto f_low = server.submit(std::move(low));
    auto f_high = server.submit(std::move(high));

    server.start();
    server.drain();
    EXPECT_TRUE(f_low.get().ok());
    EXPECT_TRUE(f_high.get().ok());
}

// --- lifecycle --------------------------------------------------------

TEST(Lifecycle, DrainResolvesEverythingAdmitted)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 2;
    Sod2Server server(&f.engine, opts);

    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 12; ++i) {
        Request req;
        req.inputs = {f.input(i % 4, 60 + i)};
        futures.push_back(server.submit(std::move(req)));
    }
    server.drain();
    for (auto& fut : futures)
        ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    ServerStats s = server.stats();
    EXPECT_EQ(s.queueDepth, 0u);
    EXPECT_EQ(s.inflight, 0u);
    EXPECT_EQ(s.completed, 12u);
}

TEST(Lifecycle, NonDrainingShutdownDiscardsTyped)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 3; ++i) {
        Request req;
        req.inputs = {f.input(i % 2, 70 + i)};
        futures.push_back(server.submit(std::move(req)));
    }
    server.shutdown(/*drain_pending=*/false);
    for (auto& fut : futures) {
        RunResult r = fut.get();
        EXPECT_EQ(r.code, ErrorCode::kShutdown);
    }
    ServerStats s = server.stats();
    EXPECT_EQ(s.discarded, 3u);
    EXPECT_EQ(s.completed, 0u);
}

TEST(Lifecycle, DrainingShutdownExecutesQueued)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    Request req;
    req.inputs = {f.input(0, 5)};
    auto future = server.submit(std::move(req));
    server.shutdown(/*drain_pending=*/true);
    EXPECT_TRUE(future.get().ok());
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST(Lifecycle, SubmitAfterShutdownShedsTyped)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);
    server.shutdown();

    Request req;
    req.inputs = {f.input(0, 5)};
    RunResult r = server.run(std::move(req));
    EXPECT_EQ(r.code, ErrorCode::kShutdown);
}

TEST(Lifecycle, StatsPartitionSubmitted)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 1;
    opts.queueDepth = 2;
    opts.startPaused = true;
    Sod2Server server(&f.engine, opts);

    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 5; ++i) {
        Request req;
        req.inputs = {f.input(i % 3, 80 + i)};
        futures.push_back(server.submit(std::move(req)));
    }
    server.start();
    server.drain();
    server.shutdown();

    ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.admitted + s.shed, s.submitted);
    EXPECT_EQ(s.completed + s.failed + s.expired + s.discarded,
              s.admitted);
}

// --- server warmup ----------------------------------------------------

TEST(Server, WarmupMakesFirstRequestAPlanHit)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 2;
    opts.affinity = AffinityMode::kShape;
    Sod2Server server(&f.engine, opts);

    Tensor in = f.input(0, 1);
    ASSERT_TRUE(server.warmup({in}));
    PlanCache::Counters warm = f.engine.planCache()->counters();
    EXPECT_EQ(warm.misses, 1u);

    Request req;
    req.inputs = {in};
    ASSERT_TRUE(server.run(std::move(req)).ok());
    PlanCache::Counters after = f.engine.planCache()->counters();
    EXPECT_EQ(after.misses, 1u);  // no second instantiation
    EXPECT_GE(after.hits, 1u);    // the served run hit the warm plan
}

// --- the storm --------------------------------------------------------

TEST(Storm, EightThreadMixedSignaturesBitExact)
{
    ServingFixture f;
    ServerOptions opts;
    opts.workers = 4;
    opts.affinity = AffinityMode::kShape;
    opts.queueDepth = 1024;  // no shedding: every result must compare
    Sod2Server server(&f.engine, opts);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 6;
    struct Issued
    {
        Tensor input;
        std::future<RunResult> future;
    };
    std::vector<std::vector<Issued>> issued(kThreads);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            issued[t].reserve(kPerThread);
            for (int i = 0; i < kPerThread; ++i) {
                Tensor in =
                    f.input((t + i) % 4,
                            1000 + static_cast<uint64_t>(t) * 100 + i);
                Request req;
                req.inputs = {in};
                Issued rec{in, server.submit(std::move(req))};
                issued[t].push_back(std::move(rec));
            }
        });
    }
    for (auto& c : clients)
        c.join();
    server.drain();

    // Every served result must be bit-exact against a direct run of
    // the same input through a private context.
    RunContext reference;
    for (auto& per_thread : issued) {
        for (Issued& rec : per_thread) {
            RunResult r = rec.future.get();
            ASSERT_TRUE(r.ok()) << r.message;
            EXPECT_EQ(snapshot(r.outputs),
                      snapshot(f.engine.run(reference, {rec.input})));
        }
    }
    ServerStats s = server.stats();
    EXPECT_EQ(s.completed,
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(s.shed, 0u);
}

// --- metrics ----------------------------------------------------------

TEST(Metrics, ServerCountersAndGaugesRegistered)
{
    ServingFixture f;
    MetricsRegistry& metrics = MetricsRegistry::instance();
    uint64_t admitted_before =
        metrics.counter("server.admitted").value();
    uint64_t completed_before =
        metrics.counter("server.completed").value();

    ServerOptions opts;
    opts.workers = 1;
    Sod2Server server(&f.engine, opts);
    Request req;
    req.inputs = {f.input(0, 9)};
    ASSERT_TRUE(server.run(std::move(req)).ok());
    server.drain();

    EXPECT_EQ(metrics.counter("server.admitted").value(),
              admitted_before + 1);
    EXPECT_EQ(metrics.counter("server.completed").value(),
              completed_before + 1);
    // Quiesced server: both gauges are back to their pre-server level
    // relative to this server's traffic (they are process-wide).
    EXPECT_EQ(server.stats().queueDepth, 0u);
    EXPECT_EQ(server.stats().inflight, 0u);
}

}  // namespace
}  // namespace sod2
