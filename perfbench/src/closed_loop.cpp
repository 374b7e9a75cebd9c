/**
 * @file
 * zoo_mixed and zoo_small: one client, closed loop, all ten zoo models
 * interleaved. Each round visits every model once in a seeded order,
 * and each model deals its sizes in passes (dealPass) over its pool:
 * every legal size for zoo_mixed, the four smallest for zoo_small.
 */

#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

using namespace sod2;

namespace {

constexpr size_t kSetupRepeats = 5;
constexpr size_t kSmallSizesPerModel = 4;
/** Latency limits behind goodput_rps. */
constexpr double kMixedLimitMs = 100.0;
constexpr double kSmallLimitMs = 20.0;
/** Upper bound on requests per second of budget (draws are made up
 *  front; a pass stops at its time budget long before). */
constexpr double kMaxRps = 4000.0;

std::vector<int64_t>
sizePool(const ZooModel& m, bool small)
{
    size_t n = small ? std::min(kSmallSizesPerModel, m.sizes.size())
                     : m.sizes.size();
    return {m.sizes.begin(), m.sizes.begin() + static_cast<long>(n)};
}

std::vector<Draw>
makeDraws(const std::vector<ZooModel>& zoo, bool small, uint64_t seed,
          size_t count)
{
    Rng rng(seed);
    std::vector<std::vector<int64_t>> decks(zoo.size());
    std::vector<int> order(zoo.size());
    std::vector<Draw> draws;
    draws.reserve(count);
    while (draws.size() < count) {
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<int>(i);
        shuffle(order, rng);
        for (int mi : order) {
            std::vector<int64_t>& deck = decks[static_cast<size_t>(mi)];
            if (deck.empty())
                deck = dealPass(sizePool(zoo[static_cast<size_t>(mi)], small),
                                rng);
            draws.push_back({mi, deck.back()});
            deck.pop_back();
        }
    }
    return draws;
}

/** Warm-up, identical for every seed: zoo_small runs its whole pool
 *  (every timed request is then a plan-cache hit); zoo_mixed runs each
 *  model at its smallest and largest size. */
void
warmUp(std::vector<ZooModel>& zoo, bool small)
{
    for (ZooModel& m : zoo) {
        std::vector<int64_t> sizes =
            small ? sizePool(m, true)
                  : std::vector<int64_t>{m.sizes.front(), m.sizes.back()};
        for (int64_t s : sizes)
            m.engine->run(*m.ctx, makeInputs(m.spec, s));
    }
}

/** Builds, compiles and warms the zoo; returns the seconds it took. */
double
setUp(std::vector<ZooModel>* zoo, bool small)
{
    ScopedSpan span("setup");
    Clock::time_point t0 = Clock::now();
    zoo->clear();
    *zoo = buildZoo(allModelNames());
    warmUp(*zoo, small);
    return secondsBetween(t0, Clock::now());
}

PlanCache::Counters
cacheCounters(const std::vector<ZooModel>& zoo)
{
    PlanCache::Counters sum;
    for (const ZooModel& m : zoo) {
        if (const PlanCache* c = m.engine->planCache()) {
            PlanCache::Counters k = c->counters();
            sum.hits += k.hits;
            sum.misses += k.misses;
            sum.coalesced += k.coalesced;
            sum.contextHits += k.contextHits;
        }
    }
    return sum;
}

std::vector<double>
perModelMs(const PassStats& p, int model)
{
    std::vector<double> out;
    for (size_t i = 0; i < p.latency.size(); ++i)
        if (p.model[i] == model)
            out.push_back(p.latency[i] * 1e3);
    return out;
}

}  // namespace

namespace {

/** Runs one request of a closed-loop pass and adds it to @p p. */
void
runRequest(ZooModel& m, const Draw& d, int64_t id, bool traced,
           Oracle& oracle, PassStats& p)
{
    SpanRecorder& rec = SpanRecorder::instance();
    std::vector<Tensor> inputs = makeInputs(m.spec, d.size);
    ++p.attempted;

    int root = -1;
    if (traced) {
        root = rec.begin("request." + m.spec.name, id);
        std::vector<int64_t> binding;
        Clock::time_point b0 = Clock::now();
        m.engine->signatureFor(inputs, &binding);
        Clock::time_point b1 = Clock::now();
        rec.add("core.bind", b0, b1, id, root);
        p.bindUs.push_back(secondsBetween(b0, b1) * 1e6);
    }

    RunStats stats;
    std::vector<Tensor> outputs;
    bool ok = true;
    Clock::time_point t0 = Clock::now();
    try {
        outputs = m.engine->run(*m.ctx, inputs, &stats);
    } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "run failed on %s@%lld: %s\n",
                     m.spec.name.c_str(), static_cast<long long>(d.size),
                     e.what());
    }
    Clock::time_point t1 = Clock::now();
    double wall = secondsBetween(t0, t1);
    p.busy += wall;
    if (traced) {
        rec.add("core.run", t0, t1, id, root);
        rec.end(root);
    }
    if (!ok) {
        ++p.failed;
        return;
    }

    // Everything below is outside the timed span.
    oracle.check(m, d.size, outputs);
    p.latency.push_back(wall);
    p.model.push_back(d.model);
    p.peakMib = std::max(p.peakMib, stats.peakMemoryBytes / kMiB);
    // Per-layer samples only when traced, so an untraced run's peak RSS
    // does not grow with its own bookkeeping.
    if (!traced)
        return;
    p.dynamicMibMax = std::max(p.dynamicMibMax, stats.dynamicBytes / kMiB);
    p.arenaMib.push_back(stats.arenaBytes / kMiB);
    p.planUs.push_back(stats.planSeconds * 1e6);
    p.planSeconds += stats.planSeconds;
    p.executedGroups += stats.executedGroups;
    for (size_t g = 0; g < stats.groupSeconds.size(); ++g) {
        double s = stats.groupSeconds[g];
        if (s <= 0.0)
            continue;
        p.groupUs.push_back(s * 1e6);
        p.groupSeconds += s;
        p.classSeconds[m.groupClass[g]] += s;
    }
}

}  // namespace

PassStats
runPass(std::vector<ZooModel>& zoo, const std::vector<Draw>& draws,
        double budget, Oracle& oracle)
{
    PassStats p;
    size_t expected =
        std::min(draws.size(), static_cast<size_t>(budget * kMaxRps));
    p.latency.reserve(expected);
    p.model.reserve(expected);
    for (size_t i = 0; i < draws.size() && p.busy < budget; ++i)
        runRequest(zoo[static_cast<size_t>(draws[i].model)], draws[i],
                   static_cast<int64_t>(i), false, oracle, p);
    return p;
}

PassPair
runTracedPair(std::vector<ZooModel>& plain, std::vector<ZooModel>& traced,
              const std::vector<Draw>& draws, double budget, Oracle& oracle)
{
    PassPair pair;
    for (size_t i = 0;
         i < draws.size() && pair.plain.busy + pair.traced.busy < budget;
         ++i) {
        size_t mi = static_cast<size_t>(draws[i].model);
        int64_t id = static_cast<int64_t>(i);
        runRequest(plain[mi], draws[i], id, false, oracle, pair.plain);
        runRequest(traced[mi], draws[i], id, true, oracle, pair.traced);
    }
    return pair;
}

void
addPassLayerMetrics(Report& r, const PassStats& p)
{
    double n = std::max<double>(1.0, static_cast<double>(p.latency.size()));
    double wall = 0.0;
    for (double s : p.latency)
        wall += s;
    double denom = wall > 0.0 ? wall : 1.0;
    r.put("core.bind_us_p50", median(p.bindUs), "us");
    r.put("core.plan_us_p50", median(p.planUs), "us");
    r.put("core.plan_us_p99", quantile(p.planUs, 0.99), "us");
    r.samples("core.plan_us", p.planUs.size());
    r.put("memory.arena_mib_max", maxOf(p.arenaMib), "MiB");
    r.put("memory.arena_mib_p50", median(p.arenaMib), "MiB");
    r.put("memory.dynamic_mib_max", p.dynamicMibMax, "MiB");
    r.put("exec.groups_per_run", static_cast<double>(p.executedGroups) / n,
          "count");
    r.put("exec.us_per_group_p50", median(p.groupUs), "us");
    r.samples("exec.us_per_group", p.groupUs.size());
    r.put("exec.conv_share", p.classSeconds[kConv] / denom, "ratio");
    r.put("exec.matmul_share", p.classSeconds[kMatmul] / denom, "ratio");
    r.put("exec.eltwise_share", p.classSeconds[kEltwise] / denom, "ratio");
    r.put("exec.other_share", p.classSeconds[kOther] / denom, "ratio");
    r.put("exec.plan_share", p.planSeconds / denom, "ratio");
    r.put("exec.unattributed_share",
          (wall - p.planSeconds - p.groupSeconds) / denom, "ratio");
}

void
addCacheMetrics(Report& r, const PlanCache::Counters& before,
                const PlanCache::Counters& after)
{
    size_t hits = after.hits - before.hits;
    size_t lookups = hits + (after.misses - before.misses) +
                     (after.coalesced - before.coalesced);
    r.put("core.plan_hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(lookups),
          "ratio");
    r.put("core.plan_lookups", static_cast<double>(lookups), "count");
    r.put("core.plan_coalesced",
          static_cast<double>(after.coalesced - before.coalesced), "count");
    r.put("core.context_hits",
          static_cast<double>(after.contextHits - before.contextHits),
          "count");
}

void
closeReport(Report& r, const Oracle& oracle, bool traced)
{
    r.correct = oracle.digestsLoaded() && oracle.mismatches() == 0;
    if (traced) {
        r.put("oracle.error_frac",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<int64_t>(1, r.attempted)),
              "ratio");
        r.put("oracle.interp_checks",
              static_cast<double>(oracle.interpreterChecks()), "count");
    }
    for (const std::string& e : oracle.errors())
        std::fprintf(stderr, "oracle: %s\n", e.c_str());
}

Report
runZooWorkload(const RunArgs& args, bool small)
{
    Report r;
    SpanRecorder& rec = SpanRecorder::instance();
    Oracle oracle(args.digests);
    double limit_ms = small ? kSmallLimitMs : kMixedLimitMs;
    std::vector<ZooModel> zoo;
    size_t max_draws = static_cast<size_t>(args.seconds * kMaxRps) + 16;

    if (!args.trace) {
        std::vector<double> setups = {setUp(&zoo, small)};
        std::vector<Draw> draws = makeDraws(zoo, small, args.seed, max_draws);
        PassStats p = runPass(zoo, draws, args.seconds, oracle);
        // Peak RSS over one set-up and the timed pass. The set-ups that
        // only time setup_s come after it: each rebuilds the zoo in the
        // heap its predecessors left, which added a different amount to
        // the peak on every run.
        double rss = peakRssMib();
        while (setups.size() < kSetupRepeats)
            setups.push_back(setUp(&zoo, small));
        oracle.finish();

        std::vector<double> ms = toMs(p.latency), model_p50;
        size_t good = 0;
        for (double v : ms)
            good += v <= limit_ms ? 1 : 0;
        for (size_t mi = 0; mi < zoo.size(); ++mi)
            model_p50.push_back(median(perModelMs(p, static_cast<int>(mi))));
        r.put("setup_s", median(setups), "s");
        r.put("p50_ms", median(ms), "ms");
        r.put("p99_ms", quantile(ms, 0.99), "ms");
        r.put("geomean_p50_ms", geomean(model_p50), "ms");
        r.put("throughput_rps", static_cast<double>(ms.size()) / p.busy,
              "1/s");
        r.put("goodput_rps", static_cast<double>(good) / p.busy, "1/s");
        r.put("peak_mem_mib", p.peakMib, "MiB");
        r.put("rss_mib", rss, "MiB");
        r.samples("setup_s", setups.size());
        r.samples("p50_ms", ms.size());
        r.samples("p99_ms", ms.size());
        r.samples("per_model_p50", ms.size() / std::max<size_t>(1, zoo.size()));
        r.note("latency_limit_ms", std::to_string(limit_ms));
        r.attempted = p.attempted;
        r.failed = p.failed + oracle.mismatches();
    } else {
        rec.enable(true);
        addCompileMetrics(r, allModelNames());

        std::vector<ZooModel> replica;
        setUp(&zoo, small);
        setUp(&replica, small);
        std::vector<Draw> draws = makeDraws(zoo, small, args.seed, max_draws);
        PlanCache::Counters before = cacheCounters(replica);
        PassPair pair = runTracedPair(zoo, replica, draws, args.seconds,
                                      oracle);
        PlanCache::Counters after = cacheCounters(replica);
        oracle.finish();

        const PassStats& plain = pair.plain;
        const PassStats& traced = pair.traced;
        addPassLayerMetrics(r, traced);
        addCacheMetrics(r, before, after);
        r.put("trace.overhead_ms",
              median(toMs(traced.latency)) - median(toMs(plain.latency)),
              "ms");
        r.put("trace.sum_vs_untraced",
              plain.busy > 0.0 ? traced.busy / plain.busy : 0.0, "ratio");
        for (size_t mi = 0; mi < zoo.size(); ++mi)
            r.put("model." + zoo[mi].spec.name + ".p50_ms",
                  median(perModelMs(plain, static_cast<int>(mi))), "ms");
        r.samples("trace.requests_per_replica", traced.latency.size());

        addKernelMetrics(r);
        rec.enable(false);

        r.attempted = plain.attempted + traced.attempted;
        r.failed = plain.failed + traced.failed + oracle.mismatches();
    }
    closeReport(r, oracle, args.trace);
    return r;
}

}  // namespace perfbench
