/**
 * @file
 * Serving-scheduler load benchmark (DESIGN.md §11 — no paper analog;
 * the scheduler is the serving-path extension of §4.3–4.4's
 * compile-once/plan-per-signature split).
 *
 * For every zoo model, a Table-7-style skewed four-signature request
 * stream (SOD2_BENCH_REQUESTS requests, default 64) is pushed through a
 * Sod2Server twice — once under shape-affinity dispatch, once under
 * round-robin — each against a fresh engine so plan-cache counters are
 * independent. Every request is one engine run on its worker's pinned
 * RunContext. Affinity's payoff is
 * the context-hit count: runs served from a worker's lock-free
 * last-plan memo because the same signature kept landing on the same
 * RunContext. A third pass measures closed-loop end-to-end latency
 * (submit -> result) on the warm affinity server and reports exact
 * p50/p95/p99 via bench::SampleStats; a fourth drives an overloaded
 * tiny-queue server plus an injected plan fault to exercise shedding.
 *
 * Exit gates (non-zero on violation):
 *  - every served output bit-exact vs the serial reference,
 *  - shape-affinity context hits >= round-robin's on every model, and
 *    strictly greater whenever the model has >= 2 distinct signatures,
 *  - every shed/failed request carries a typed ErrorCode and a
 *    non-empty message (no anonymous drops).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <vector>

#include "core/sod2_engine.h"
#include "harness.h"
#include "serving/server.h"
#include "support/env.h"
#include "support/fault_injection.h"
#include "support/string_util.h"

using namespace sod2;
using namespace sod2::bench;
using serving::AffinityMode;
using serving::Request;
using serving::ServerOptions;
using serving::ServerStats;
using serving::Sod2Server;

namespace {

using Clock = std::chrono::steady_clock;

int
requestCount()
{
    int n = env::benchRequests();
    return n > 0 ? n : 64;
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

struct StreamSpec
{
    /** Pregenerated inputs, one per signature (shared, read-only). */
    std::vector<std::vector<Tensor>> inputs;
    /** Serial-reference output bytes, one per signature. */
    std::vector<std::vector<std::vector<uint8_t>>> want;
    /** Signature index of request i (median-heavy skew). */
    std::vector<int> sig_of_request;
    /** Distinct signature hashes among @ref inputs (legalizeSize can
     *  collapse all four percentiles onto one shape). */
    size_t distinct = 0;
};

StreamSpec
buildStream(const ModelSpec& spec, const Sod2Engine& engine,
            int requests)
{
    StreamSpec s;
    int64_t span = spec.maxSize - spec.minSize;
    for (int p : {25, 50, 75, 100}) {
        int64_t size = spec.legalizeSize(spec.minSize + span * p / 100);
        Rng rng(500 + p);
        s.inputs.push_back(spec.sample(rng, size));
    }
    std::set<uint64_t> hashes;
    for (const auto& in : s.inputs)
        hashes.insert(engine.signatureFor(in));
    s.distinct = hashes.size();

    RunContext ref_ctx;
    for (const auto& in : s.inputs)
        s.want.push_back(snapshot(engine.run(ref_ctx, in)));

    const int pattern[] = {1, 0, 1, 2, 1, 3, 1, 0};  // median-heavy
    s.sig_of_request.reserve(requests);
    for (int i = 0; i < requests; ++i)
        s.sig_of_request.push_back(pattern[i % 8]);
    return s;
}

struct ModeResult
{
    double wallSeconds = 0;
    size_t contextHits = 0, hits = 0, misses = 0;
    int mismatches = 0;
    uint64_t completed = 0;
};

/**
 * Pushes the whole stream through a fresh engine + server under
 * @p mode. Requests are submitted asynchronously from this thread in
 * stream order — deterministic routing for both policies — then the
 * server drains and every future is compared against the reference.
 */
ModeResult
serveStream(const ModelSpec& spec, AffinityMode mode,
            const StreamSpec& stream)
{
    Sod2Options eopts;
    eopts.rdp = spec.rdp;
    Sod2Engine engine(spec.graph.get(), eopts);

    ServerOptions sopts;
    sopts.workers = 4;
    sopts.affinity = mode;
    sopts.queueDepth = stream.sig_of_request.size() + 4;  // no shedding
    Sod2Server server(&engine, sopts);

    // Re-derive the reference against *this* engine's outputs? Not
    // needed: engines compiled from one graph are deterministic, so
    // the stream's serial reference transfers bit-exactly.
    ModeResult r;
    std::vector<std::future<RunResult>> futures;
    futures.reserve(stream.sig_of_request.size());
    auto t0 = Clock::now();
    for (int sig : stream.sig_of_request) {
        Request req;
        req.inputs = stream.inputs[sig];
        futures.push_back(server.submit(std::move(req)));
    }
    server.drain();
    r.wallSeconds = std::chrono::duration<double>(Clock::now() - t0).count();

    for (size_t i = 0; i < futures.size(); ++i) {
        RunResult res = futures[i].get();
        if (!res.ok() ||
            snapshot(res.outputs) !=
                stream.want[stream.sig_of_request[i]])
            ++r.mismatches;
    }
    PlanCache::Counters c = engine.planCache()->counters();
    r.contextHits = c.contextHits;
    r.hits = c.hits;
    r.misses = c.misses;
    r.completed = server.stats().completed;
    return r;
}

/** Closed-loop latency samples on a warm shape-affinity server. */
SampleStats
measureLatency(const ModelSpec& spec, const StreamSpec& stream)
{
    Sod2Options eopts;
    eopts.rdp = spec.rdp;
    Sod2Engine engine(spec.graph.get(), eopts);
    ServerOptions sopts;
    sopts.workers = 4;
    sopts.affinity = AffinityMode::kShape;
    Sod2Server server(&engine, sopts);
    for (const auto& in : stream.inputs)
        server.warmup(in);

    std::vector<double> samples;
    samples.reserve(stream.sig_of_request.size());
    for (int sig : stream.sig_of_request) {
        Request req;
        req.inputs = stream.inputs[sig];
        auto t0 = Clock::now();
        RunResult res = server.run(std::move(req));
        double s = std::chrono::duration<double>(Clock::now() - t0).count();
        if (res.ok())
            samples.push_back(s);
    }
    return SampleStats(std::move(samples));
}

struct ShedResult
{
    uint64_t shed = 0, expired = 0, completed = 0, failed = 0;
    uint64_t submitted = 0;
    /** Sheds/failures whose result lacked a typed code or a message —
     *  the anonymous drops the exit gate forbids. */
    int untyped = 0;
};

/** Overloads a tiny-queue paused server (burst + stale deadlines +
 *  one injected plan fault) and audits that every non-ok result is
 *  typed. */
ShedResult
overload(const ModelSpec& spec, const StreamSpec& stream)
{
    Sod2Options eopts;
    eopts.rdp = spec.rdp;
    Sod2Engine engine(spec.graph.get(), eopts);
    ServerOptions sopts;
    sopts.workers = 2;
    sopts.queueDepth = 4;
    sopts.startPaused = true;  // the burst lands on a parked pool
    Sod2Server server(&engine, sopts);

    std::vector<std::future<RunResult>> futures;
    int n = static_cast<int>(stream.sig_of_request.size());
    for (int i = 0; i < n; ++i) {
        Request req;
        req.inputs = stream.inputs[stream.sig_of_request[i]];
        if (i % 3 == 0)
            req.deadlineSeconds = 1e-4;  // stale by the time we start
        futures.push_back(server.submit(std::move(req)));
    }
    // One plan fault mid-drain: the hit request must fail typed (the
    // first instantiation already happened in buildStream's engine,
    // not this one, so the fault hits a real serving-path miss).
    fault::arm(fault::kPlanInstantiate);
    server.start();
    server.drain();
    fault::disarm();

    ShedResult r;
    for (auto& fut : futures) {
        RunResult res = fut.get();
        if (res.ok())
            continue;
        bool typed = res.code != ErrorCode::kOk && !res.message.empty();
        if (!typed)
            ++r.untyped;
    }
    ServerStats s = server.stats();
    r.shed = s.shed;
    r.expired = s.expired;
    r.completed = s.completed;
    r.failed = s.failed;
    r.submitted = s.submitted;
    if (s.admitted + s.shed != s.submitted)
        ++r.untyped;  // accounting hole counts as an untyped drop
    return r;
}

}  // namespace

int
main()
{
    // Request-level scheduling is the subject; keep kernels serial so
    // worker concurrency is what the numbers measure.
    setenv("SOD2_NUM_THREADS", "1", /*overwrite=*/0);

    int requests = requestCount();
    printHeader(
        strFormat("Serving load: %d-request skewed stream, 4 workers, "
                  "shape-affinity vs round-robin "
                  "(SOD2_BENCH_REQUESTS to change)",
                  requests),
        {"Model", "policy", "wall ms", "ctx hits", "hits", "miss",
         "p50 ms", "p95 ms", "p99 ms", "outputs"});

    bool all_exact = true;
    bool affinity_wins = true;
    bool all_typed = true;
    for (const std::string& model_name : allModelNames()) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        Sod2Options ref_opts;
        ref_opts.rdp = spec.rdp;
        Sod2Engine ref_engine(spec.graph.get(), ref_opts);
        StreamSpec stream = buildStream(spec, ref_engine, requests);

        ModeResult by_mode[2];
        const AffinityMode modes[] = {AffinityMode::kShape,
                                      AffinityMode::kRoundRobin};
        SampleStats latency = measureLatency(spec, stream);
        for (int m = 0; m < 2; ++m) {
            by_mode[m] = serveStream(spec, modes[m], stream);
            const ModeResult& r = by_mode[m];
            bool exact = r.mismatches == 0;
            all_exact = all_exact && exact;
            bool is_shape = modes[m] == AffinityMode::kShape;
            printRow({spec.name, serving::affinityModeName(modes[m]),
                      fmtMs(r.wallSeconds), strFormat("%zu", r.contextHits),
                      strFormat("%zu", r.hits), strFormat("%zu", r.misses),
                      is_shape ? fmtMs(latency.percentile(0.50)) : "-",
                      is_shape ? fmtMs(latency.percentile(0.95)) : "-",
                      is_shape ? fmtMs(latency.percentile(0.99)) : "-",
                      exact ? "bit-exact" : "MISMATCH"});
            std::printf(
                "JSON: {\"bench\":\"serving_load\",\"model\":\"%s\","
                "\"policy\":\"%s\",\"requests\":%d,\"workers\":4,"
                "\"wall_ms\":%.3f,\"context_hits\":%zu,\"cache_hits\":%zu,"
                "\"cache_misses\":%zu,\"distinct_signatures\":%zu,"
                "\"completed\":%llu,\"outputs_bit_exact\":%s}\n",
                spec.name.c_str(), serving::affinityModeName(modes[m]),
                requests, r.wallSeconds * 1e3, r.contextHits, r.hits,
                r.misses, stream.distinct,
                static_cast<unsigned long long>(r.completed),
                exact ? "true" : "false");
        }
        // The tentpole claim: routing by signature must keep workers on
        // their warm last-plan memo strictly more often than blind
        // rotation whenever there is more than one signature to route.
        bool won = stream.distinct >= 2
                       ? by_mode[0].contextHits > by_mode[1].contextHits
                       : by_mode[0].contextHits >= by_mode[1].contextHits;
        affinity_wins = affinity_wins && won;

        ShedResult shed = overload(spec, stream);
        all_typed = all_typed && shed.untyped == 0;
        std::printf(
            "JSON: {\"bench\":\"serving_load_overload\",\"model\":\"%s\","
            "\"submitted\":%llu,\"shed\":%llu,\"expired\":%llu,"
            "\"completed\":%llu,\"failed\":%llu,\"untyped_drops\":%d}\n",
            spec.name.c_str(),
            static_cast<unsigned long long>(shed.submitted),
            static_cast<unsigned long long>(shed.shed),
            static_cast<unsigned long long>(shed.expired),
            static_cast<unsigned long long>(shed.completed),
            static_cast<unsigned long long>(shed.failed), shed.untyped);
    }
    printSeparator();

    std::printf("outputs served vs serial: %s\n",
                all_exact ? "bit-exact on every model x policy"
                          : "MISMATCH");
    std::printf("shape-affinity vs round-robin context hits: %s\n",
                affinity_wins
                    ? "affinity wins on every multi-signature model"
                    : "VIOLATION — round-robin matched or beat affinity");
    std::printf("shed typing: %s\n",
                all_typed ? "every shed/failed request carried a typed "
                            "ErrorCode and message"
                          : "VIOLATION — anonymous drop observed");
    return all_exact && affinity_wins && all_typed ? 0 : 1;
}
