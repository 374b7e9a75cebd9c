/** Observability-layer tests: tracer on/off semantics (off = zero
 *  events and bit-exact outputs; on = one span per executed group and
 *  valid Chrome trace JSON), metrics counters/histograms aggregating
 *  across threads, the strict JSON validator, and the bench harness's
 *  geoMean guards and percentile columns. Labeled "observability" so
 *  scripts/check.sh observability and the tsan preset can target it. */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "harness.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/string_util.h"
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

/** Forces the tracer into a known state for one test, restoring the
 *  previous state after (the suite may run with SOD2_TRACE=1). */
class TraceGuard
{
  public:
    explicit TraceGuard(bool on) : was_(Trace::enabled())
    {
        Trace::setEnabled(on);
    }
    ~TraceGuard() { Trace::setEnabled(was_); }

  private:
    bool was_;
};

// --- tracer on/off semantics -----------------------------------------

TEST(TraceTest, DisabledRecordsNothingAndStaysBitExact)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    // Construct the engine first: its constructor applies the env
    // toggles (initFromEnv), which this test then overrides.
    Sod2Engine engine(&m.graph, opts);
    std::vector<Tensor> in = {cnnInput(2, 16, 16, 1)};

    std::vector<std::vector<uint8_t>> want, off_out, on_out;
    {
        TraceGuard off(false);
        RunContext ctx;
        want = snapshot(engine.run(ctx, in));

        size_t before = Trace::totalEventCount();
        RunContext ctx2;
        off_out = snapshot(engine.run(ctx2, in));
        EXPECT_EQ(Trace::totalEventCount(), before)
            << "disabled tracer must record zero events";
    }
    {
        TraceGuard on(true);
        size_t before = Trace::totalEventCount();
        RunContext ctx;
        on_out = snapshot(engine.run(ctx, in));
        EXPECT_GT(Trace::totalEventCount(), before)
            << "enabled tracer must record spans";
    }
    // Tracing must be observability only — never change results.
    EXPECT_EQ(off_out, want);
    EXPECT_EQ(on_out, want);
}

TEST(TraceTest, OneSpanPerExecutedGroup)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    TraceGuard on(true);
    RunContext ctx;
    RunStats stats;
    engine.run(ctx, {cnnInput(1, 16, 16, 2)}, &stats);

    int group_spans = 0;
    bool saw_run = false, saw_bind = false, saw_plan = false;
    for (const TraceEvent& e : ctx.traceBuffer().snapshotEvents()) {
        if (std::string(e.cat) == "group") {
            ++group_spans;
            EXPECT_EQ(e.phase, 'X');
            EXPECT_GE(e.durUs, 0.0);
            // Group spans are tagged with the fusion-group id and the
            // selected kernel version.
            EXPECT_NE(e.args.find("\"group\":"), std::string::npos);
            EXPECT_NE(e.args.find("\"version\":"), std::string::npos);
        }
        if (e.name == "run")
            saw_run = true;
        if (e.name == "bind")
            saw_bind = true;
        if (e.name == "plan")
            saw_plan = true;
    }
    EXPECT_EQ(group_spans, stats.executedGroups);
    EXPECT_TRUE(saw_run);
    EXPECT_TRUE(saw_bind);
    EXPECT_TRUE(saw_plan);
}

TEST(TraceTest, GroupSpansCoverMostOfTheRunSpan)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    TraceGuard on(true);
    RunContext ctx;
    // Warm the plan cache so the measured run is all execution.
    engine.run(ctx, {cnnInput(2, 24, 24, 3)});
    Trace::clear();
    engine.run(ctx, {cnnInput(2, 24, 24, 4)});

    double run_us = 0, group_us = 0;
    for (const TraceEvent& e : ctx.traceBuffer().snapshotEvents()) {
        if (e.name == "run")
            run_us = e.durUs;
        else if (std::string(e.cat) == "group")
            group_us += e.durUs;
    }
    ASSERT_GT(run_us, 0.0);
    // The per-group spans are measured inside the run span; they can
    // only miss bind/plan/arena overhead, not exceed the total.
    EXPECT_LE(group_us, run_us * 1.001);
    EXPECT_GT(group_us, 0.0);
}

TEST(TraceTest, ExportIsValidChromeTraceJson)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    TraceGuard on(true);
    RunContext ctx;
    ctx.traceBuffer().setLaneName("observability \"lane\"\n1");
    engine.run(ctx, {cnnInput(1, 8, 8, 5)});
    Trace::threadBuffer().addInstant("marker", "test",
                                     "\"note\":\"with \\\"quotes\\\"\"");

    std::string json = Trace::exportJsonString();
    std::string error;
    EXPECT_TRUE(validateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(TraceTest, RetiredLanesSurviveThreadExit)
{
    TraceGuard on(true);
    size_t before = Trace::totalEventCount();
    std::thread worker([] {
        TraceBuffer& tb = Trace::threadBuffer();
        tb.setLaneName("short-lived");
        tb.addComplete("work", "test", Trace::nowUs(), 1.0);
    });
    worker.join();
    // The thread-local buffer destructed with its thread; its events
    // must still be countable and exportable.
    EXPECT_GE(Trace::totalEventCount(), before + 1);
    EXPECT_NE(Trace::exportJsonString().find("short-lived"),
              std::string::npos);
}

TEST(TraceTest, BufferDropsBeyondCapacityInsteadOfGrowing)
{
    TraceBuffer buf("capacity-test");
    // Exercise the drop path without paying for 1M appends: the cap is
    // per-lane, so a dedicated buffer sees it exactly at kMaxEvents.
    // (Filling is cheap — empty args, short name.)
    for (size_t i = 0; i < TraceBuffer::kMaxEvents + 10; ++i)
        buf.addComplete("e", "test", 0.0, 0.0);
    EXPECT_EQ(buf.eventCount(), TraceBuffer::kMaxEvents);
    EXPECT_EQ(buf.droppedCount(), 10u);
}

// --- metrics ----------------------------------------------------------

TEST(MetricsTest, HistogramPercentilesInterpolateWithinBuckets)
{
    Histogram h({10.0, 20.0, 30.0});
    for (int i = 0; i < 10; ++i)
        h.observe(15.0);  // all land in (10, 20]
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.sum(), 150.0);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
    // rank 5 of 10 in a bucket spanning (10, 20]: midpoint.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 20.0);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);

    h.observe(1000.0);  // overflow bucket
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 30.0);  // clamps to last bound
}

TEST(MetricsTest, SnapshotIsInternallyConsistentUnderWriters)
{
    // Regression for torn toJson() reads: percentile() used to re-read
    // the live buckets per call, so count/p50/p95/p99 could each see a
    // different population. snapshot() captures the buckets once; every
    // derived statistic must agree with that single capture, no matter
    // how hard concurrent observe() calls hammer the histogram. (Run
    // under TSan via the observability label.)
    Histogram h({10.0, 20.0, 30.0});
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&] {
            uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed))
                h.observe(static_cast<double>(++i % 40));
        });

    for (int round = 0; round < 200; ++round) {
        Histogram::Snapshot s = h.snapshot();
        uint64_t bucket_sum = 0;
        for (uint64_t b : s.buckets)
            bucket_sum += b;
        // count is *derived from* the captured buckets — identical by
        // construction; a torn implementation trips this immediately.
        ASSERT_EQ(s.count, bucket_sum);
        double p50 = s.percentile(50.0);
        double p95 = s.percentile(95.0);
        double p99 = s.percentile(99.0);
        ASSERT_LE(p50, p95);
        ASSERT_LE(p95, p99);
        if (s.count > 0) {
            ASSERT_GE(s.mean(), 0.0);
        }
    }
    stop.store(true);
    for (auto& w : writers)
        w.join();

    // Quiescent: snapshot and live accessors agree exactly.
    Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, h.count());
    EXPECT_DOUBLE_EQ(s.percentile(50.0), h.percentile(50.0));
}

TEST(MetricsTest, ResetDuringWriterStormNeverTearsSnapshots)
{
    // Regression for reset-vs-writer tears: an observe() that
    // overlapped reset() could land its bucket before the zeroing and
    // its sum after it (or vice versa), and a snapshot could read the
    // buckets before an observe and the sum after it. reset() and
    // snapshot() now quiesce writers (odd epoch + in-flight drain), so
    // under concurrent observers, resetters AND snapshotters every
    // view holds whole observations only. (Run under TSan via the
    // observability label.) Failures are collected and asserted after
    // the threads are joined, so a failing round cannot leave them
    // running.
    Histogram h({10.0, 20.0, 30.0});
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed))
                h.observe(static_cast<double>(++i % 40));
        });
    threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            h.reset();
            std::this_thread::yield();
        }
    });

    std::vector<std::string> failures;
    for (int round = 0; round < 500 && failures.size() < 5; ++round) {
        Histogram::Snapshot s = h.snapshot();
        uint64_t bucket_sum = 0;
        for (uint64_t b : s.buckets)
            bucket_sum += b;
        std::string where = "round " + std::to_string(round) + ": ";
        if (s.count != bucket_sum)
            failures.push_back(where + "count " + std::to_string(s.count) +
                               " != bucket sum " +
                               std::to_string(bucket_sum));
        // A tear of pre-reset buckets with a post-reset sum, or of
        // buckets read before an observe with a sum read after it,
        // shows up as a mean outside the observed range [0, 39].
        if (s.count > 0 && (s.mean() < 0.0 || s.mean() > 40.0))
            failures.push_back(where + "mean " + std::to_string(s.mean()) +
                               " over " + std::to_string(s.count) +
                               " observations");
        if (s.percentile(50.0) > s.percentile(99.0))
            failures.push_back(where + "p50 above p99");
    }
    stop.store(true);
    for (auto& th : threads)
        th.join();
    for (const std::string& f : failures)
        ADD_FAILURE() << f;

    // Quiescent reset still zeroes everything.
    h.reset();
    Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsTest, RegistryResetAllRacesToJsonSafely)
{
    // The registry-level storm the issue names: toJson() walking every
    // instrument while resetAll() zeroes them concurrently. Both take
    // the registry lock for the instrument MAP, but histogram contents
    // are read lock-free — the per-histogram seqlock is what keeps the
    // dump internally consistent. The test asserts it parses and no
    // sanitizer report fires.
    MetricsRegistry& reg = MetricsRegistry::instance();
    Counter& c = reg.counter("observability_test.reset_race");
    Histogram& h =
        reg.histogram("observability_test.reset_race_hist", {1.0, 2.0});
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                c.add();
                h.observe(1.5);
            }
        });
    threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed))
            reg.resetAll();
    });
    for (int round = 0; round < 200; ++round) {
        std::string error;
        EXPECT_TRUE(validateJson(reg.toJson(), &error)) << error;
    }
    stop.store(true);
    for (auto& th : threads)
        th.join();
}

TEST(MetricsTest, RegistryReturnsSameInstancePerName)
{
    MetricsRegistry& reg = MetricsRegistry::instance();
    Counter& a = reg.counter("observability_test.counter");
    Counter& b = reg.counter("observability_test.counter");
    EXPECT_EQ(&a, &b);
    uint64_t before = a.value();
    b.add(3);
    EXPECT_EQ(a.value(), before + 3);

    Histogram& ha = reg.histogram("observability_test.hist");
    Histogram& hb = reg.histogram("observability_test.hist", {1.0});
    EXPECT_EQ(&ha, &hb);  // bounds only apply on first creation
}

TEST(MetricsTest, ToJsonIsValidJson)
{
    MetricsRegistry& reg = MetricsRegistry::instance();
    reg.counter("observability_test.json").add();
    reg.histogram("observability_test.json_hist").observe(42.0);
    std::string json = reg.toJson();
    std::string error;
    EXPECT_TRUE(validateJson(json, &error)) << error;
}

TEST(MetricsTest, GaugeSetAddAndRegistryIdentity)
{
    MetricsRegistry& reg = MetricsRegistry::instance();
    Gauge& a = reg.gauge("observability_test.gauge");
    Gauge& b = reg.gauge("observability_test.gauge");
    EXPECT_EQ(&a, &b);  // one instance per name, like counters

    a.set(7);
    EXPECT_EQ(b.value(), 7);
    b.add(-3);
    EXPECT_EQ(a.value(), 4);
    a.add(10);
    EXPECT_EQ(a.value(), 14);

    // Gauges are exported next to counters/histograms in one snapshot.
    a.set(-2);  // negative levels must survive the round trip
    std::string json = reg.toJson();
    std::string error;
    EXPECT_TRUE(validateJson(json, &error)) << error;
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"observability_test.gauge\":-2"),
              std::string::npos);

    a.reset();
    EXPECT_EQ(a.value(), 0);
}

TEST(MetricsTest, EngineHistogramCountsEveryRunAcrossEightThreads)
{
    TestModel m = TestModel::cnn();
    Sod2Options opts;
    opts.rdp = m.rdp;
    Sod2Engine engine(&m.graph, opts);

    TraceGuard on(true);  // metrics observe on the traced path
    Histogram& run_us =
        MetricsRegistry::instance().histogram("engine.run_us");
    Counter& runs = MetricsRegistry::instance().counter("engine.runs");
    uint64_t hist_before = run_us.count();
    uint64_t runs_before = runs.value();

    constexpr int kThreads = 8;
    constexpr int kRounds = 4;
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            RunContext ctx;
            sync.arrive_and_wait();
            for (int r = 0; r < kRounds; ++r)
                engine.run(ctx, {cnnInput(1, 8 + 4 * (t % 2), 8, 6)});
        });
    }
    for (auto& th : threads)
        th.join();

    uint64_t total = static_cast<uint64_t>(kThreads) * kRounds;
    EXPECT_EQ(run_us.count() - hist_before, total);
    EXPECT_EQ(runs.value() - runs_before, total);
    EXPECT_GE(run_us.percentile(99.0), run_us.percentile(50.0));
}

// --- JSON validator ---------------------------------------------------

TEST(JsonValidatorTest, AcceptsValidDocuments)
{
    for (const char* ok :
         {"{}", "[]", "null", "true", "-1.5e3",
          "{\"a\":[1,2,{\"b\":\"c\\n\\u0041\"}],\"d\":null}",
          "\"plain string\"", "[1.0, 2e-8, -0.25]"}) {
        std::string error;
        EXPECT_TRUE(validateJson(ok, &error)) << ok << ": " << error;
    }
}

TEST(JsonValidatorTest, RejectsInvalidDocuments)
{
    for (const char* bad :
         {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "[01]", "nul",
          "\"unterminated", "{\"a\":1}extra", "[1 2]",
          "\"bad\\escape\"", "{\"a\":+1}"}) {
        EXPECT_FALSE(validateJson(bad)) << bad;
    }
}

// --- bench harness ----------------------------------------------------

TEST(GeoMeanTest, ComputesGeometricMean)
{
    EXPECT_DOUBLE_EQ(bench::geoMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(bench::geoMean({5.0}), 5.0);
}

TEST(GeoMeanTest, ThrowsOnEmptyInput)
{
    EXPECT_THROW(bench::geoMean({}), Error);
}

TEST(GeoMeanTest, SkipsNonPositiveValues)
{
    // 0 and negative entries are skipped (log undefined), with the
    // mean taken over what remains.
    EXPECT_DOUBLE_EQ(bench::geoMean({4.0, 0.0, 9.0, -2.0}), 6.0);
    EXPECT_THROW(bench::geoMean({0.0, -1.0}), Error);
}

}  // namespace
}  // namespace sod2
