/**
 * @file
 * serve_codebert: CodeBERT behind one Sod2Server with one worker,
 * driven by kClients closed-loop clients, each with one request in
 * flight. While one request runs, the next waits in the server's queue,
 * so every request passes admission, the queue, dispatch and the future
 * hand-off. Sequence lengths are skewed: exactly a fifth are long.
 * Latency runs from submit() to the moment the future resolves.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>

#include "serving/server.h"
#include "workloads.h"

namespace perfbench {

using namespace sod2;
using serving::Request;
using serving::ServerOptions;
using serving::ServerStats;
using serving::Sod2Server;

namespace {

constexpr size_t kSetupRepeats = 5;
/** One worker and two clients: the server always has a request queued
 *  behind the running one. An open loop at a fixed rate saturated
 *  whenever the shared host slowed down, and two workers' kernel calls
 *  oversubscribed the four cores (see README.md). */
constexpr int kWorkers = 1;
constexpr int kClients = 2;
constexpr int kWarmRounds = 2;
/** Latency limit behind goodput_rps and serving.slo_miss_frac. */
constexpr double kLimitMs = 50.0;
/** Share of requests with a long sequence, in [129, 384]; the rest are
 *  in [32, 128]. A long request queued behind another long one waits
 *  about twice as long as one queued behind a short one; at a share of
 *  0.1 those pairs were 1% of requests, so p99_ms sat on the edge
 *  between the two and jumped between runs. At 0.2 they are 4%. */
constexpr double kLongShare = 0.2;
/** Upper bound on requests per second (lengths are dealt up front). */
constexpr double kMaxRps = 1000.0;
/** Request time of the traced run's direct (server-less) replay, both
 *  replicas together; it supplies the RunStats-based layer metrics the
 *  server does not expose. */
constexpr double kReplaySeconds = 2.0;

/** @p count lengths: exactly kLongShare of them, at seeded positions,
 *  long; each class deals its lengths in passes (dealPass), so every
 *  seed sends the same mix. */
std::vector<int64_t>
makeLengths(uint64_t seed, size_t count)
{
    Rng rng(seed);
    std::vector<char> is_long(count, 0);
    std::fill_n(is_long.begin(),
                std::llround(kLongShare * static_cast<double>(count)), 1);
    shuffle(is_long, rng);
    std::vector<int64_t> pools[2], decks[2];
    for (int64_t len = 32; len <= 384; ++len)
        pools[len > 128 ? 1 : 0].push_back(len);
    std::vector<int64_t> out(count);
    for (size_t i = 0; i < count; ++i) {
        int c = is_long[i];
        if (decks[c].empty())
            decks[c] = dealPass(pools[c], rng);
        out[i] = decks[c].back();
        decks[c].pop_back();
    }
    return out;
}

struct ServeSetup
{
    std::vector<ZooModel> zoo;  ///< just CodeBERT
    std::unique_ptr<Sod2Server> server;
};

/** Builds CodeBERT, compiles it, starts the server and warms it with a
 *  fixed set of lengths; returns the seconds it took. */
double
setUp(ServeSetup* s)
{
    ScopedSpan span("setup");
    Clock::time_point t0 = Clock::now();
    s->server.reset();
    s->zoo.clear();
    s->zoo = buildZoo({"CodeBERT"});
    ServerOptions opts;
    opts.workers = kWorkers;
    s->server = std::make_unique<Sod2Server>(s->zoo[0].engine.get(), opts);
    // Warm-up: two bursts over the length range, submitted together so
    // the queue and the worker's arena see long requests before timing.
    std::vector<std::future<RunResult>> warm;
    for (int round = 0; round < kWarmRounds; ++round) {
        for (int64_t len = 32; len <= 384; len += 32) {
            Request req;
            req.inputs = makeInputs(s->zoo[0].spec, len);
            warm.push_back(s->server->submit(std::move(req)));
        }
    }
    for (std::future<RunResult>& f : warm) {
        RunResult res = f.get();
        if (!res.ok())
            std::fprintf(stderr, "warm-up failed: %s\n", res.message.c_str());
    }
    return secondsBetween(t0, Clock::now());
}

/** One completed request of a served pass. */
struct Served
{
    size_t index = 0;
    double latency = 0.0;  ///< seconds, submit to resolve
    RunResult result;
};

struct ServePass
{
    std::vector<double> latency;  ///< seconds, submit to resolve
    std::vector<double> service;  ///< RunResult::serviceSeconds
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t withinLimit = 0;
    double wall = 0.0;  ///< pass start to last result
    ServerStats stats;
};

/**
 * kClients threads take request indices in order and each keeps one
 * request in flight, until @p seconds of wall time or @p max_count
 * requests. Outputs go through @p oracle after the pass.
 */
ServePass
runServePass(ServeSetup& s, const std::vector<int64_t>& lengths,
             double seconds, size_t max_count, bool traced, Oracle& oracle)
{
    SpanRecorder& rec = SpanRecorder::instance();
    const ZooModel& m = s.zoo[0];
    max_count = std::min(max_count, lengths.size());
    ServerStats before = s.server->stats();
    std::atomic<size_t> next{0};
    std::mutex mu;  // guards served
    std::vector<Served> served;
    Clock::time_point start = Clock::now();

    auto client = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= max_count || secondsBetween(start, Clock::now()) >= seconds)
                return;
            Request req;
            req.inputs = makeInputs(m.spec, lengths[i]);
            int64_t id = static_cast<int64_t>(i);
            int root = traced ? rec.begin("request.CodeBERT", id) : -1;
            Clock::time_point t0 = Clock::now();
            std::future<RunResult> fut = s.server->submit(std::move(req));
            Clock::time_point t1 = Clock::now();
            RunResult res = fut.get();
            Clock::time_point t2 = Clock::now();
            if (traced) {
                rec.add("serving.submit", t0, t1, id, root);
                rec.add("serving.wait", t1, t2, id, root);
                rec.end(root);
            }
            std::lock_guard<std::mutex> lock(mu);
            served.push_back({i, secondsBetween(t0, t2), std::move(res)});
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (std::thread& t : clients)
        t.join();
    ServePass p;
    p.wall = secondsBetween(start, Clock::now());

    std::sort(served.begin(), served.end(),
              [](const Served& a, const Served& b) { return a.index < b.index; });
    for (const Served& sv : served) {
        ++p.attempted;
        if (!sv.result.ok()) {
            ++p.failed;
            std::fprintf(stderr, "request %zu failed: %s\n", sv.index,
                         sv.result.message.c_str());
            continue;
        }
        p.latency.push_back(sv.latency);
        p.service.push_back(sv.result.serviceSeconds);
        p.withinLimit += sv.latency * 1e3 <= kLimitMs ? 1 : 0;
        oracle.check(m, lengths[sv.index], sv.result.outputs);
    }
    ServerStats after = s.server->stats();
    p.stats = after;
    p.stats.batches = after.batches - before.batches;
    p.stats.completed = after.completed - before.completed;
    p.stats.shed = after.shed - before.shed;
    p.stats.expired = after.expired - before.expired;
    return p;
}

/** The plan's peak intermediate bytes at the longest of the first
 *  @p count lengths (CodeBERT's footprint grows with length), from a
 *  direct run. */
double
peakMibAt(const ModelSpec& spec, const std::vector<int64_t>& lengths,
          size_t count)
{
    count = std::min(count, lengths.size());
    if (count == 0)
        return 0.0;
    int64_t longest =
        *std::max_element(lengths.begin(), lengths.begin() + count);
    ZooModel m = compileModel(spec);
    RunStats stats;
    m.engine->run(*m.ctx, makeInputs(m.spec, longest), &stats);
    return stats.peakMemoryBytes / kMiB;
}

}  // namespace

Report
runServeWorkload(const RunArgs& args)
{
    Report r;
    SpanRecorder& rec = SpanRecorder::instance();
    Oracle oracle(args.digests);
    std::vector<int64_t> lengths = makeLengths(
        args.seed, static_cast<size_t>(args.seconds * kMaxRps) + 16);
    ServeSetup s;

    if (!args.trace) {
        std::vector<double> setups = {setUp(&s)};
        // Peak RSS through one set-up and warm-up only: during the served
        // pass it grew by a different amount on every seed as the
        // worker's arena is grown and trimmed (see README.md). The
        // set-ups that only time setup_s come after the pass, as in
        // closed_loop.cpp.
        double rss = peakRssMib();
        ServePass p = runServePass(s, lengths, args.seconds, lengths.size(),
                                   false, oracle);
        s.server->shutdown();
        // Written to the run record only, as the evidence behind the cut.
        double rss_after_pass = peakRssMib();
        while (setups.size() < kSetupRepeats)
            setups.push_back(setUp(&s));
        s.server->shutdown();
        double peak = peakMibAt(s.zoo[0].spec, lengths,
                                static_cast<size_t>(p.attempted));
        oracle.finish();

        std::vector<double> ms = toMs(p.latency);
        double p50 = median(ms);
        r.put("setup_s", median(setups), "s");
        r.put("p50_ms", p50, "ms");
        r.put("p99_ms", quantile(ms, 0.99), "ms");
        r.put("geomean_p50_ms", p50, "ms");
        r.put("throughput_rps", static_cast<double>(ms.size()) / p.wall,
              "1/s");
        r.put("goodput_rps", static_cast<double>(p.withinLimit) / p.wall,
              "1/s");
        r.put("peak_mem_mib", peak, "MiB");
        r.put("rss_mib", rss, "MiB");
        r.samples("setup_s", setups.size());
        r.samples("p50_ms", ms.size());
        r.samples("p99_ms", ms.size());
        r.note("latency_limit_ms", std::to_string(kLimitMs));
        r.note("rss_after_pass_mib", std::to_string(rss_after_pass));
        r.attempted = p.attempted;
        r.failed = p.failed + oracle.mismatches();
    } else {
        rec.enable(true);
        addCompileMetrics(r, {"CodeBERT"});

        // Untraced half, then a traced half over the same requests.
        rec.enable(false);
        setUp(&s);
        ServePass plain = runServePass(s, lengths, args.seconds / 2.0,
                                       lengths.size(), false, oracle);
        s.server->shutdown();

        rec.enable(true);
        setUp(&s);
        const PlanCache* cache = s.zoo[0].engine->planCache();
        PlanCache::Counters before = cache->counters();
        ServePass traced =
            runServePass(s, lengths, 1e30,
                         static_cast<size_t>(plain.attempted), true, oracle);
        s.server->shutdown();
        PlanCache::Counters after = cache->counters();

        // Direct replay of the same lengths for the RunStats layers.
        std::vector<ZooModel> direct, replica;
        direct.push_back(compileModel(s.zoo[0].spec));
        replica.push_back(compileModel(s.zoo[0].spec));
        std::vector<Draw> draws;
        for (int64_t len : lengths)
            draws.push_back({0, len});
        PassPair replay = runTracedPair(direct, replica, draws,
                                        kReplaySeconds, oracle);
        rec.enable(false);
        oracle.finish();

        addPassLayerMetrics(r, replay.traced);
        addCacheMetrics(r, before, after);

        std::vector<double> lat = toMs(traced.latency);
        std::vector<double> svc = toMs(traced.service);
        std::vector<double> wait;
        for (size_t i = 0; i < lat.size(); ++i)
            wait.push_back(lat[i] - svc[i]);
        double misses = static_cast<double>(traced.attempted -
                                            traced.withinLimit);
        r.put("serving.service_ms_p50", median(svc), "ms");
        r.put("serving.wait_ms_p50", median(wait), "ms");
        r.put("serving.wait_ms_p99", quantile(wait, 0.99), "ms");
        r.put("serving.batches_per_req",
              traced.stats.completed == 0
                  ? 0.0
                  : static_cast<double>(traced.stats.batches) /
                        static_cast<double>(traced.stats.completed),
              "ratio");
        r.put("serving.shed", static_cast<double>(traced.stats.shed),
              "count");
        r.put("serving.expired", static_cast<double>(traced.stats.expired),
              "count");
        r.put("serving.slo_miss_frac",
              misses / static_cast<double>(
                           std::max<int64_t>(1, traced.attempted)),
              "ratio");
        r.samples("serving.wait_ms_p99", wait.size());

        std::vector<double> plain_ms = toMs(plain.latency);
        r.put("trace.overhead_ms", median(lat) - median(plain_ms), "ms");
        r.put("trace.sum_vs_untraced",
              replay.plain.busy > 0.0
                  ? replay.traced.busy / replay.plain.busy
                  : 0.0,
              "ratio");
        r.put("model.CodeBERT.p50_ms", median(plain_ms), "ms");

        rec.enable(true);
        addKernelMetrics(r);
        rec.enable(false);

        r.attempted = plain.attempted + traced.attempted +
                      replay.plain.attempted + replay.traced.attempted;
        r.failed = plain.failed + traced.failed + replay.plain.failed +
                   replay.traced.failed + oracle.mismatches();
    }
    closeReport(r, oracle, args.trace);
    return r;
}

}  // namespace perfbench
