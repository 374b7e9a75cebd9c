/**
 * @file
 * Fault-injection soak (no paper analog — the robustness gate for the
 * serving path). One compiled Sod2Engine per model is driven from 8
 * request threads over a repeated-shape warm stream while the main
 * thread arms every named fault site (arena.alloc, plan.instantiate,
 * kernel.dispatch, cache.insert) in rounds. The hot sites fire from
 * worker traffic (with varying nth-hit counts); the plan-path sites
 * only execute on a cache miss, so the driver provokes each of those
 * itself with a never-seen shape signature.
 *
 * The soak proves three things, and exits non-zero if any fails:
 *  - every injected fault surfaces as a *typed* error on exactly the
 *    faulted request (fault::fireCount() delta == failures observed);
 *  - zero state corruption: the faulted context's very next successful
 *    run, and every untouched request, is bit-exact with the serial
 *    reference;
 *  - the engine is healthy after the storm: a post-storm run per
 *    signature is bit-exact and the plan cache still serves hits.
 *
 * Also covers the SOD2_FAULT env contract end to end (set + parse +
 * arm) before any engine exists, and a final *resilience phase*
 * (DESIGN.md §15) driving a Sod2Server under a periodic
 * plan.instantiate fault pinned to one cold signature: healthy warm
 * signatures must see ZERO failures, the poison signature must shed
 * typed kCircuitOpen once its breaker trips, and after the fault
 * clears the half-open probe must re-close the breaker. Each row is
 * emitted as one JSON line ("JSON: {...}") for scraping.
 */

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/sod2_engine.h"
#include "harness.h"
#include "serving/server.h"
#include "support/env.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/string_util.h"

using namespace sod2;
using namespace sod2::bench;

namespace {

int
roundCount()
{
    int n = env::soakRounds();
    return n > 0 ? n : 3;
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

/** The codes an injected fault may legally surface as. Anything else
 *  reaching a worker counts as corruption. */
bool
isExpectedFaultCode(ErrorCode code)
{
    return code == ErrorCode::kArenaExhausted ||
           code == ErrorCode::kKernelFailure ||
           code == ErrorCode::kInternal;
}

struct SoakResult
{
    int requests = 0;
    uint64_t fires = 0;
    int typedFailures = 0;
    int untypedFailures = 0;
    int mismatches = 0;
    int unrecovered = 0;
    bool postStormExact = false;
    bool postStormHit = false;

    bool ok() const
    {
        return untypedFailures == 0 && mismatches == 0 &&
               unrecovered == 0 &&
               fires == static_cast<uint64_t>(typedFailures) &&
               postStormExact && postStormHit;
    }
};

SoakResult
soakModel(const ModelSpec& spec, int rounds)
{
    constexpr int kThreads = 8;

    Sod2Options opts;
    opts.rdp = spec.rdp;
    // Reference engine computes expectations without consuming any
    // armed fault (sites are process-global, so arm only afterwards).
    Sod2Engine reference(spec.graph.get(), opts);
    Sod2Engine engine(spec.graph.get(), opts);

    // Two distinct warm shape signatures, served median-heavy.
    std::vector<std::vector<Tensor>> inputs;
    std::vector<std::vector<std::vector<uint8_t>>> want;
    RunContext ref_ctx;
    int64_t s1 = spec.legalizeSize(spec.minSize);
    int64_t s2 = spec.legalizeSize(spec.minSize + spec.sizeMultiple);
    for (int64_t hint : {s1, s2}) {
        Rng rng(900 + static_cast<uint64_t>(hint));
        inputs.push_back(spec.sample(rng, hint));
        want.push_back(snapshot(reference.run(ref_ctx, inputs.back())));
    }

    SoakResult r;

    // Pre-warm the engine under test so the worker stream is all plan
    // cache hits: the plan-path fault sites then fire only on the
    // driver's deliberately cold requests below.
    {
        RunContext warm;
        for (size_t sig = 0; sig < inputs.size(); ++sig)
            if (snapshot(engine.run(warm, inputs[sig])) != want[sig])
                ++r.mismatches;
    }

    uint64_t fires_before = fault::fireCount();

    std::atomic<int> served{0};
    std::atomic<int> typed{0}, untyped{0}, mismatches{0}, unrecovered{0};
    std::atomic<bool> done{false};
    std::barrier sync(kThreads + 1);  // workers + the driving main thread

    // Failure handler shared by workers and driver: every failure must
    // be typed, and the same context must promptly recover bit-exact.
    // Retries can themselves be hit by the driver's next arming, so the
    // attempt cap is generous; only real wedging trips `unrecovered`.
    auto failThenRecover = [&](RunContext& ctx,
                               const std::vector<Tensor>& in,
                               const std::vector<std::vector<uint8_t>>& exp,
                               RunResult res) {
        for (int attempt = 0; attempt < 64; ++attempt) {
            if (isExpectedFaultCode(res.code))
                typed.fetch_add(1);
            else
                untyped.fetch_add(1);
            res = engine.tryRun(ctx, in);
            if (res.ok()) {
                if (snapshot(res.outputs) != exp)
                    mismatches.fetch_add(1);
                return;
            }
        }
        unrecovered.fetch_add(1);
    };

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            RunContext ctx;
            sync.arrive_and_wait();
            while (!done.load(std::memory_order_relaxed)) {
                int i = served.fetch_add(1);
                size_t sig = i % 4 < 3 ? 0 : 1;  // median-heavy
                RunResult res = engine.tryRun(ctx, inputs[sig]);
                if (res.ok()) {
                    if (snapshot(res.outputs) != want[sig])
                        mismatches.fetch_add(1);
                } else {
                    failThenRecover(ctx, inputs[sig], want[sig], res);
                }
            }
        });
    }

    // Driver: arm each site `rounds` times against the live stream.
    // Hot sites (hit by every run) fire from worker traffic with a
    // varying nth-hit count; plan-path sites (miss-only) are provoked
    // with a cold signature the driver serves itself.
    sync.arrive_and_wait();
    RunContext cold_ctx;
    int cold_idx = 0;
    for (int round = 0; round < rounds; ++round) {
        for (const std::string& site : fault::knownSites()) {
            bool hot = site == fault::kArenaAlloc ||
                       site == fault::kKernelDispatch;
            if (hot) {
                uint64_t before = fault::fireCount();
                fault::arm(site, /*nth=*/1 + round % 3);
                while (fault::fireCount() == before)
                    std::this_thread::yield();
                continue;
            }
            int64_t hint = spec.legalizeSize(
                spec.minSize + (2 + cold_idx) * spec.sizeMultiple);
            Rng rng(7000 + cold_idx);
            ++cold_idx;
            std::vector<Tensor> cold_in = spec.sample(rng, hint);
            auto cold_want = snapshot(reference.run(ref_ctx, cold_in));
            fault::arm(site, /*nth=*/1);
            RunResult res = engine.tryRun(cold_ctx, cold_in);
            if (res.ok()) {
                // The signature was warm after all (size legalization
                // collided, or an evicted warm entry let a worker
                // consume the arming first — that worker counted it).
                fault::disarm();
                if (snapshot(res.outputs) != cold_want)
                    mismatches.fetch_add(1);
            } else {
                failThenRecover(cold_ctx, cold_in, cold_want, res);
            }
        }
    }
    done.store(true);
    for (auto& w : workers)
        w.join();
    fault::disarm();

    r.requests = served.load();
    r.typedFailures = typed.load();
    r.untypedFailures = untyped.load();
    r.mismatches += mismatches.load();
    r.unrecovered = unrecovered.load();
    r.fires = fault::fireCount() - fires_before;

    // Post-storm health: bit-exact serial runs, cache still hitting.
    fault::disarm();
    r.postStormExact = true;
    RunContext post;
    RunStats stats;
    for (size_t sig = 0; sig < inputs.size(); ++sig) {
        engine.run(post, inputs[sig], &stats);  // warm / rebuild plans
        if (snapshot(engine.run(post, inputs[sig], &stats)) != want[sig])
            r.postStormExact = false;
    }
    r.postStormHit = stats.planCacheHit;
    return r;
}

/** Outcome of the self-healing phase (one Sod2Server, one poison
 *  signature under a sustained plan-build fault). */
struct ResilienceResult
{
    int healthyRequests = 0;
    int healthyFailures = 0;
    /** Typed poison failures before the breaker opened (== threshold). */
    int poisonTyped = 0;
    bool shedTyped = false;   ///< post-trip shed arrived as kCircuitOpen
    uint64_t trips = 0;
    uint64_t circuitShed = 0;
    bool recovered = false;     ///< post-disarm probe re-closed & served
    bool breakersClear = false; ///< health() shows no live breaker rows

    bool ok() const
    {
        return healthyRequests > 0 && healthyFailures == 0 &&
               poisonTyped > 0 && shedTyped && trips >= 1 &&
               circuitShed >= 1 && recovered && breakersClear;
    }
};

ResilienceResult
resiliencePhase(const ModelSpec& spec)
{
    constexpr int kHealthyThreads = 4;
    constexpr int kBreakerThreshold = 3;
    constexpr long long kCooldownMs = 100;

    Sod2Options eopts;
    eopts.rdp = spec.rdp;
    Sod2Engine engine(spec.graph.get(), eopts);

    serving::ServerOptions sopts;
    sopts.workers = 2;
    sopts.breaker.threshold = kBreakerThreshold;
    sopts.breaker.cooldownMillis = kCooldownMs;
    sopts.breaker.probesToClose = 1;
    serving::Sod2Server server(&engine, sopts);

    // Two healthy signatures, warmed BEFORE the fault arms so their
    // plans are cached and the periodic plan-build fault can never
    // reach them.
    const int64_t s1 = spec.legalizeSize(spec.minSize);
    const int64_t s2 = spec.legalizeSize(spec.minSize + spec.sizeMultiple);
    std::vector<std::vector<Tensor>> warm;
    for (int64_t hint : {s1, s2}) {
        Rng rng(4100 + static_cast<uint64_t>(hint));
        warm.push_back(spec.sample(rng, hint));
        server.warmup(warm.back());
    }

    // Poison: a size the server has never built a plan for (walk until
    // legalization yields a genuinely new signature).
    int64_t poison_size = s2;
    for (int k = 2; k < 64 && (poison_size == s1 || poison_size == s2);
         ++k)
        poison_size =
            spec.legalizeSize(spec.minSize + k * spec.sizeMultiple);
    Rng prng(4242);
    std::vector<Tensor> poison = spec.sample(prng, poison_size);

    ResilienceResult r;
    fault::armEvery(fault::kPlanInstantiate, 1);

    // A fixed per-thread request count (not a stop flag) so the
    // healthy stream always overlaps the poison storm, independent of
    // how fast the breaker trips.
    constexpr int kHealthyIters = 16;
    std::atomic<int> healthy_req{0}, healthy_fail{0};
    std::barrier sync(kHealthyThreads + 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kHealthyThreads; ++t)
        threads.emplace_back([&, t] {
            sync.arrive_and_wait();
            for (int n = 0; n < kHealthyIters; ++n) {
                serving::Request rq;
                rq.inputs = warm[(t + n) % warm.size()];
                RunResult res = server.run(std::move(rq));
                healthy_req.fetch_add(1);
                if (!res.ok())
                    healthy_fail.fetch_add(1);
            }
        });
    sync.arrive_and_wait();

    // Drive the poison signature serially: each attempt re-fails the
    // plan build (charged), the breaker trips at the threshold, and
    // the next request sheds fast without executing.
    for (int i = 0; i < kBreakerThreshold + 8; ++i) {
        serving::Request rq;
        rq.inputs = poison;
        RunResult res = server.run(std::move(rq));
        if (res.code == ErrorCode::kCircuitOpen) {
            r.shedTyped = true;
            break;
        }
        if (!res.ok())
            ++r.poisonTyped;
    }
    for (std::thread& t : threads)
        t.join();
    r.healthyRequests = healthy_req.load();
    r.healthyFailures = healthy_fail.load();

    // Fault clears; after the cooldown the next poison request is the
    // half-open probe, re-builds the plan, and re-closes the breaker.
    fault::disarm();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kCooldownMs + 50));
    serving::Request probe;
    probe.inputs = poison;
    r.recovered = server.run(std::move(probe)).ok();

    serving::ServerStats stats = server.stats();
    r.trips = stats.breakerTrips;
    r.circuitShed = stats.circuitShed;
    r.breakersClear = server.health().breakers.empty();
    return r;
}

}  // namespace

int
main()
{
    // Kernel pool pinned to 1: request concurrency is the subject.
    setenv("SOD2_NUM_THREADS", "1", /*overwrite=*/0);

    // SOD2_FAULT env contract, end to end, before any engine exists:
    // set -> initFromEnv parses and arms -> disarm before the soak.
    bool env_contract = false;
    if (std::getenv("SOD2_FAULT") == nullptr) {
        setenv("SOD2_FAULT", "kernel.dispatch:5", /*overwrite=*/1);
        fault::initFromEnv();
        env_contract = fault::armed();
        fault::disarm();
        unsetenv("SOD2_FAULT");
    } else {
        // Caller armed a site themselves; honor it and just note that
        // the env path is in use.
        fault::initFromEnv();
        env_contract = true;
    }

    int rounds = roundCount();
    printHeader(
        strFormat("Fault soak: 8 serving threads per model, every fault "
                  "site armed %d times against the live stream "
                  "(SOD2_SOAK_ROUNDS to change)",
                  rounds),
        {"Model", "runs", "fires", "typed", "untyped", "mismatch",
         "unrecov", "post-storm"});

    bool all_ok = env_contract;
    for (const std::string& model_name : allModelNames()) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        SoakResult r = soakModel(spec, rounds);
        all_ok = all_ok && r.ok();

        printRow({spec.name, strFormat("%d", r.requests),
                  strFormat("%llu",
                            static_cast<unsigned long long>(r.fires)),
                  strFormat("%d", r.typedFailures),
                  strFormat("%d", r.untypedFailures),
                  strFormat("%d", r.mismatches),
                  strFormat("%d", r.unrecovered),
                  r.postStormExact && r.postStormHit ? "healthy"
                                                     : "CORRUPT"});
        std::printf(
            "JSON: {\"bench\":\"fault_soak\",\"model\":\"%s\","
            "\"threads\":8,\"requests\":%d,\"fires\":%llu,"
            "\"typed_failures\":%d,\"untyped_failures\":%d,"
            "\"mismatches\":%d,\"unrecovered\":%d,"
            "\"post_storm_exact\":%s,\"post_storm_cache_hit\":%s}\n",
            spec.name.c_str(), r.requests,
            static_cast<unsigned long long>(r.fires), r.typedFailures,
            r.untypedFailures, r.mismatches, r.unrecovered,
            r.postStormExact ? "true" : "false",
            r.postStormHit ? "true" : "false");
    }
    printSeparator();

    // Self-healing phase: sustained plan-build fault on one signature
    // through a live Sod2Server — breaker trips, typed kCircuitOpen
    // shed, zero healthy-signature failures, probe recovery.
    {
        Rng rng(1234);
        ModelSpec spec = buildModel(allModelNames().front(), rng);
        ResilienceResult r = resiliencePhase(spec);
        all_ok = all_ok && r.ok();
        std::printf(
            "resilience phase (%s): healthy %d req / %d failed, poison "
            "typed %d, trips %llu, circuit shed %llu, shed typed %s, "
            "probe recovery %s, breakers clear %s -> %s\n",
            spec.name.c_str(), r.healthyRequests, r.healthyFailures,
            r.poisonTyped, static_cast<unsigned long long>(r.trips),
            static_cast<unsigned long long>(r.circuitShed),
            r.shedTyped ? "yes" : "NO", r.recovered ? "yes" : "NO",
            r.breakersClear ? "yes" : "NO", r.ok() ? "ok" : "FAILED");
        std::printf(
            "JSON: {\"bench\":\"fault_soak\",\"phase\":\"resilience\","
            "\"model\":\"%s\",\"healthy_requests\":%d,"
            "\"healthy_failures\":%d,\"poison_typed\":%d,"
            "\"breaker_trips\":%llu,\"circuit_shed\":%llu,"
            "\"shed_typed\":%s,\"probe_recovered\":%s,"
            "\"breakers_clear\":%s}\n",
            spec.name.c_str(), r.healthyRequests, r.healthyFailures,
            r.poisonTyped, static_cast<unsigned long long>(r.trips),
            static_cast<unsigned long long>(r.circuitShed),
            r.shedTyped ? "true" : "false",
            r.recovered ? "true" : "false",
            r.breakersClear ? "true" : "false");
        printSeparator();
    }

    std::printf("SOD2_FAULT env contract (set -> parse -> arm): %s\n",
                env_contract ? "ok" : "FAILED");
    std::printf("soak verdict: %s\n",
                all_ok ? "every injected fault typed, zero corruption, "
                         "breaker tripped and recovered, engines "
                         "healthy post-storm"
                       : "FAILURE — see rows above");
    return all_ok ? 0 : 1;
}
