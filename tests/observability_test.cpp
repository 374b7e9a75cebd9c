/** Observability-layer tests: tracer on/off semantics (off = zero
 *  events and bit-exact outputs; on = one span per executed group and
 *  valid Chrome trace JSON), the strict JSON validator, and the bench
 *  harness's geoMean guards and percentile columns. Labeled
 *  "observability" so scripts/check.sh observability and the tsan
 *  preset can target it. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "harness.h"
#include "support/logging.h"
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

TEST(SampleStatsTest, NearestRankPercentilesAndGuards)
{
    // The p50/p95/p99 columns of table6_latency and serving_load: the
    // ceil(q*N)-th smallest sample, whatever the input order.
    std::vector<double> hundred;
    for (int v = 100; v >= 1; --v)
        hundred.push_back(static_cast<double>(v));
    bench::SampleStats s(hundred);
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);

    // One sample is every percentile.
    bench::SampleStats one({7.5});
    EXPECT_DOUBLE_EQ(one.percentile(0.50), 7.5);
    EXPECT_DOUBLE_EQ(one.percentile(0.95), 7.5);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 7.5);

    // An empty sample set is a harness bug, and so is a quantile
    // outside [0, 1] (a percent passed where a fraction belongs).
    EXPECT_THROW((void)bench::SampleStats(std::vector<double>{}), Error);
    EXPECT_THROW(s.percentile(-0.01), Error);
    EXPECT_THROW(s.percentile(1.01), Error);
    EXPECT_THROW(s.percentile(50.0), Error);
}

}  // namespace
}  // namespace sod2
