#ifndef SOD2_SUPPORT_ENV_H_
#define SOD2_SUPPORT_ENV_H_

/**
 * @file
 * Cached process-environment configuration.
 *
 * SoD2's env knobs (SOD2_VALIDATE_PLANS, SOD2_NUM_THREADS, ...) are
 * read **once per process**, at the first query, and the parsed value
 * is reused for the process lifetime. That makes the semantics uniform
 * across every consumer: before this helper, SOD2_VALIDATE_PLANS was
 * re-read by each engine constructor, so flipping it between
 * constructing two engines in one process was honored by the second
 * engine but not the first — an inconsistency this cache removes by
 * design. Tests that need a different value must set it before the
 * first query (in practice: before creating any engine or thread pool)
 * or run in a fresh process.
 *
 * The cached accessors are thread-safe (each is backed by a
 * magic-static initialized on first use).
 */

#include <string>

namespace sod2 {
namespace env {

/**
 * SOD2_VALIDATE_PLANS=1 — force memory-plan re-validation on every
 * run, including plan-cache hits (the CI tripwire for cached-plan
 * reuse). Cached at first query, once per process.
 */
bool validatePlans();

/**
 * SOD2_NUM_THREADS — pins the global kernel thread-pool size (the
 * paper's "8 threads on mobile CPU" setup knob). Returns 0 when unset
 * or not a positive integer, meaning "use hardware concurrency".
 * Cached at first query, once per process.
 */
int numThreads();

/**
 * SOD2_TRACE=1 — enables the span/event tracer (support/trace.h).
 * Cached at first query, once per process.
 */
bool traceEnabled();

/**
 * SOD2_TRACE_FILE — path the Chrome trace JSON is written to at
 * process exit; setting it implies SOD2_TRACE=1. Empty when unset.
 * Cached at first query, once per process.
 */
const std::string& traceFile();

/**
 * SOD2_ARENA_BUDGET — per-run cap, in bytes, on the planned-arena
 * requirement; a run whose memory plan needs more fails with a typed
 * ArenaExhausted error instead of growing without bound. 0 (unset)
 * means unlimited. RunOptions::arenaBudgetBytes overrides per call.
 * Cached at first query, once per process.
 */
size_t arenaBudgetBytes();

/**
 * SOD2_SERVER_WORKERS — worker-thread count of a Sod2Server whose
 * ServerOptions leaves workers at 0. Returns 0 when unset (the server
 * then picks its built-in default). Cached at first query, once per
 * process.
 */
int serverWorkers();

/**
 * SOD2_SERVER_QUEUE_DEPTH — total admission-queue depth (across all
 * workers) of a Sod2Server whose ServerOptions leaves queueDepth at 0.
 * Returns 0 when unset (the server then picks its built-in default).
 * Cached at first query, once per process.
 */
size_t serverQueueDepth();

/**
 * SOD2_SERVER_AFFINITY — dispatch policy of a Sod2Server: "shape"
 * (default), "round_robin", or "least_loaded". Empty when unset.
 * Cached at first query, once per process.
 */
const std::string& serverAffinity();

/**
 * SOD2_BATCH_MAX — largest request batch one Sod2Server worker
 * coalesces into a single engine run, when ServerOptions leaves
 * maxBatchSize at 0. Returns 0 when unset (the server then picks its
 * built-in default). Cached at first query, once per process.
 */
int batchMax();

/**
 * SOD2_BATCH_WAIT_US — microseconds a worker with a non-full batch
 * waits for compatible stragglers before running, when ServerOptions
 * leaves maxBatchWaitMicros negative. Returns 0 when unset (no
 * waiting: batch whatever is queued right now). Cached at first
 * query, once per process.
 */
long long batchWaitMicros();

/**
 * SOD2_BATCH_PAD=1 — group batches by MVC shape class instead of the
 * exact signature, padding the stacked batch dim up to the bucket
 * boundary (serving/batcher.h), when ServerOptions leaves padBatches
 * negative. Cached at first query, once per process.
 */
bool batchPad();

/**
 * SOD2_BREAKER_THRESHOLD — consecutive typed failures of one shape
 * signature that trip its circuit breaker (DESIGN.md §15), when
 * ServerOptions leaves BreakerOptions::threshold negative. Returns 0
 * when unset (breakers disabled). Cached at first query, once per
 * process.
 */
int breakerThreshold();

/**
 * SOD2_BREAKER_COOLDOWN_MS — milliseconds an open breaker waits before
 * letting one half-open probe through, when ServerOptions leaves
 * BreakerOptions::cooldownMillis negative. Returns 250 when unset.
 * Cached at first query, once per process.
 */
long long breakerCooldownMillis();

/**
 * SOD2_BREAKER_PROBES — consecutive successful half-open probes that
 * re-close a tripped breaker, when ServerOptions leaves
 * BreakerOptions::probesToClose negative. Returns 1 when unset.
 * Cached at first query, once per process.
 */
int breakerProbes();

/**
 * SOD2_RETRY_MAX — per-request budget of in-worker retries for
 * transient error classes (DESIGN.md §15), when ServerOptions leaves
 * RetryOptions::maxAttempts negative. Returns 0 when unset (retries
 * disabled). Cached at first query, once per process.
 */
int retryMax();

/**
 * SOD2_RETRY_BASE_US — base delay, in microseconds, of the
 * decorrelated-jitter retry backoff, when ServerOptions leaves
 * RetryOptions::baseMicros negative. Returns 200 when unset. Cached at
 * first query, once per process.
 */
long long retryBaseMicros();

/**
 * SOD2_RETRY_CAP_US — upper bound, in microseconds, on one retry
 * backoff delay, when ServerOptions leaves RetryOptions::capMicros
 * negative. Returns 20000 when unset. Cached at first query, once per
 * process.
 */
long long retryCapMicros();

/**
 * SOD2_WATCHDOG_MS — scan interval of the server watchdog thread that
 * flags workers stuck past their run deadline plus grace, when
 * ServerOptions leaves watchdogIntervalMillis negative. 0 turns the
 * watchdog off. Returns 100 when unset, negative or not an integer.
 * Cached at first query, once per process.
 */
long long watchdogMillis();

/**
 * SOD2_SNAPSHOT=1 — enables engine snapshotting (core/snapshot.h):
 * loadOrCompileFromEnv() reuses an on-disk compiled artifact when its
 * validation hashes match, and writes one after a clean compile.
 * Cached at first query, once per process.
 */
bool snapshotEnabled();

/**
 * SOD2_SNAPSHOT_DIR — directory engine snapshots are read from and
 * written to (one `<model>.sod2snap` file per model name); setting it
 * implies SOD2_SNAPSHOT=1. Empty when unset. Cached at first query,
 * once per process.
 */
const std::string& snapshotDir();

/**
 * SOD2_FLEET_BUDGET — global arena budget, in bytes, shared by every
 * member of a Sod2Fleet whose FleetOptions leaves
 * globalArenaBudgetBytes at 0 (DESIGN.md §16). The MemoryGovernor
 * denies any arena grow that would push the fleet-wide committed total
 * past this. 0 (unset) means unlimited. Cached at first query, once
 * per process.
 */
size_t fleetBudgetBytes();

/**
 * SOD2_FLEET_ROUTING — routing mode of a Sod2Fleet whose FleetOptions
 * leaves routing empty: "cost" (default; cost-model-predicted latency
 * with EWMA correction and queue-depth tie-breaking) or "round_robin".
 * Empty when unset. Cached at first query, once per process.
 */
const std::string& fleetRouting();

/**
 * SOD2_BENCH_SAMPLES — per-point sample count of the bench harness's
 * latency sweeps (bench/harness.h). Returns 0 when unset (the harness
 * then uses its built-in default). Cached at first query, once per
 * process.
 */
int benchSamples();

/**
 * SOD2_BENCH_RUNS — iteration count of the steady-state plan-cache
 * bench (bench/steady_state_cache). Returns 0 when unset (the bench
 * then uses its built-in default). Cached at first query, once per
 * process.
 */
int benchRuns();

/**
 * SOD2_BENCH_REQUESTS — request count per scenario of the serving
 * benches (bench/concurrent_serving, bench/serving_load). Returns 0
 * when unset (each bench then uses its built-in default). Cached at
 * first query, once per process.
 */
int benchRequests();

/**
 * SOD2_SOAK_ROUNDS — round count of the fault-injection soak
 * (bench/fault_soak). Returns 0 when unset (the soak then uses its
 * built-in default). Cached at first query, once per process.
 */
int soakRounds();

/** Uncached low-level parse: true iff @p name is set to exactly "1". */
bool readFlag(const char* name);

/** Uncached low-level read: @p name's value, or "" when unset. */
std::string readString(const char* name);

/** Uncached low-level parse: @p name as a positive int, else @p fallback. */
int readPositiveInt(const char* name, int fallback);

/** Uncached low-level parse: @p name as a positive 64-bit int, else
 *  @p fallback (covers byte-sized knobs like SOD2_ARENA_BUDGET). */
long long readPositiveInt64(const char* name, long long fallback);

/** Uncached low-level parse: @p name as a 64-bit int >= 0, else
 *  @p fallback (for knobs where 0 means off, like SOD2_WATCHDOG_MS). */
long long readNonNegativeInt64(const char* name, long long fallback);

}  // namespace env
}  // namespace sod2

#endif  // SOD2_SUPPORT_ENV_H_
