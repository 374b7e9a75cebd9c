/**
 * @file
 * Steady-state plan-cache benchmark (no paper analog — serving-path
 * optimization). Real traffic repeats input-shape signatures heavily
 * (Table 7's distributions), so the engine memoizes instantiated plans
 * per signature. This benchmark streams the *same* shape through the
 * engine: 1-shot (the cold, cache-miss cost every engine pays) vs the
 * amortized cost over a 100-run repeated-shape stream, cache on vs off.
 * The cache claim: steady-state planSeconds collapses to ~0 (>= 90%
 * reduction vs cache-off) with bit-identical outputs.
 *
 * Besides the usual table, each model row is emitted as one JSON line
 * ("JSON: {...}") for harness scraping.
 */

#include <cstdint>

#include "core/sod2_engine.h"
#include "harness.h"
#include "support/env.h"
#include "support/string_util.h"

using namespace sod2;
using namespace sod2::bench;

namespace {

int
runCount()
{
    int n = env::benchRuns();
    return n > 0 ? n : 100;
}

struct StreamResult
{
    double firstSeconds = 0;       ///< 1-shot (cold) latency
    double amortizedSeconds = 0;   ///< mean latency over the stream
    double steadyPlanSeconds = 0;  ///< mean planSeconds, first run excluded
    size_t hits = 0, misses = 0, evictions = 0;
    /** Byte snapshot of the final run's outputs (equivalence check). */
    std::vector<std::vector<uint8_t>> outputs;
};

StreamResult
runStream(Sod2Engine& engine, const std::vector<Tensor>& inputs, int runs)
{
    StreamResult r;
    // This stream's share of the engine's cumulative cache counters
    // (the cache-off engine has no cache and reports zeros).
    const PlanCache* cache = engine.planCache();
    const PlanCache::Counters before =
        cache ? cache->counters() : PlanCache::Counters{};
    double total_s = 0, steady_plan_s = 0;
    RunStats stats;
    std::vector<Tensor> outs;
    for (int i = 0; i < runs; ++i) {
        outs = engine.run(inputs, &stats);
        total_s += stats.seconds;
        if (i == 0)
            r.firstSeconds = stats.seconds;
        else
            steady_plan_s += stats.planSeconds;
    }
    r.amortizedSeconds = total_s / runs;
    r.steadyPlanSeconds = runs > 1 ? steady_plan_s / (runs - 1) : 0;
    if (cache) {
        const PlanCache::Counters after = cache->counters();
        r.hits = after.hits - before.hits;
        r.misses = after.misses - before.misses;
        r.evictions = after.evictions - before.evictions;
    }
    for (const Tensor& t : outs) {
        const uint8_t* p = static_cast<const uint8_t*>(t.raw());
        r.outputs.emplace_back(p, p + t.byteSize());
    }
    return r;
}

}  // namespace

int
main()
{
    int runs = runCount();
    printHeader(strFormat("Steady-state plan cache: %d-run repeated-shape "
                          "streams (SOD2_BENCH_RUNS to change)",
                          runs),
                {"Model", "1-shot ms", "amort off", "amort on",
                 "plan us off", "plan us on", "plan cut", "hits",
                 "outputs"});

    std::vector<double> reductions;
    bool all_equal = true;
    for (const std::string& model_name : allModelNames()) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        // One fixed mid-range shape signature, repeated every run.
        int64_t hint =
            spec.legalizeSize((spec.minSize + spec.maxSize) / 2);
        Rng in_rng(77);
        auto inputs = spec.sample(in_rng, hint);

        Sod2Options off_opts;
        off_opts.rdp = spec.rdp;
        off_opts.planCacheCapacity = 0;
        Sod2Engine off_engine(spec.graph.get(), off_opts);

        Sod2Options on_opts;
        on_opts.rdp = spec.rdp;  // cache on by default
        Sod2Engine on_engine(spec.graph.get(), on_opts);

        StreamResult off = runStream(off_engine, inputs, runs);
        StreamResult on = runStream(on_engine, inputs, runs);

        double reduction =
            off.steadyPlanSeconds > 0
                ? 1.0 - on.steadyPlanSeconds / off.steadyPlanSeconds
                : 0.0;
        reductions.push_back(reduction);
        bool equal = off.outputs == on.outputs;
        all_equal = all_equal && equal;

        printRow({spec.name, fmtMs(off.firstSeconds),
                  fmtMs(off.amortizedSeconds), fmtMs(on.amortizedSeconds),
                  strFormat("%.1f", off.steadyPlanSeconds * 1e6),
                  strFormat("%.1f", on.steadyPlanSeconds * 1e6),
                  strFormat("%.0f%%", reduction * 100),
                  strFormat("%zu", on.hits),
                  equal ? "bit-exact" : "MISMATCH"});

        std::printf(
            "JSON: {\"bench\":\"steady_state_cache\",\"model\":\"%s\","
            "\"runs\":%d,\"first_ms\":%.4f,"
            "\"amortized_ms_cache_off\":%.4f,"
            "\"amortized_ms_cache_on\":%.4f,"
            "\"steady_plan_us_cache_off\":%.2f,"
            "\"steady_plan_us_cache_on\":%.2f,"
            "\"plan_seconds_reduction\":%.3f,"
            "\"cache_hits\":%zu,\"cache_misses\":%zu,"
            "\"cache_evictions\":%zu,\"outputs_bit_exact\":%s}\n",
            spec.name.c_str(), runs, off.firstSeconds * 1e3,
            off.amortizedSeconds * 1e3, on.amortizedSeconds * 1e3,
            off.steadyPlanSeconds * 1e6, on.steadyPlanSeconds * 1e6,
            reduction, on.hits, on.misses, on.evictions,
            equal ? "true" : "false");
    }
    printSeparator();

    double mean = 0;
    for (double r : reductions)
        mean += r;
    mean /= reductions.size();
    std::printf("mean steady-state planSeconds reduction: %.0f%%  "
                "(target: >= 90%% — cache hits skip interval evaluation, "
                "peak-outward placement, and version selection)\n",
                mean * 100);
    std::printf("outputs cache-on vs cache-off: %s\n",
                all_equal ? "bit-exact on every model" : "MISMATCH");
    return all_equal && mean >= 0.0 ? 0 : 1;
}
