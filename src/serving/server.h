#ifndef SOD2_SERVING_SERVER_H_
#define SOD2_SERVING_SERVER_H_

/**
 * @file
 * Sod2Server — the serving scheduler in front of one compiled engine
 * (DESIGN.md §11).
 *
 * A compiled Sod2Engine is immutable and thread-safe, but throughput
 * under repeated dynamic shapes depends on *where* each request runs:
 * per-signature plans are the expensive reusable artifact (paper
 * §4.3–4.4), and a worker that just ran a signature serves the next
 * request of that signature from its RunContext's lock-free last-plan
 * memo. The server therefore owns a fixed pool of workers, each with a
 * pinned RunContext, and routes admitted requests by shape signature
 * (serving/affinity.h) so repeated signatures land on a warm context.
 *
 * Admission control: a configurable total queue-depth cap and optional
 * queued-bytes budget. A request that would overflow either is shed
 * immediately with a typed QueueFull result — backpressure, not an
 * unbounded queue. A queued request whose deadline expires before a
 * worker picks it up is shed at dequeue time with DeadlineExceeded,
 * without executing; a deadline that expires mid-run surfaces the
 * engine's cooperative group-boundary DeadlineExceeded unchanged.
 *
 * Results: submit() resolves its future with a RunResult whose outputs
 * are deep copies (the engine's outputs alias the worker context's
 * arena and die at that worker's next run; the copies are unconditionally
 * safe to hold).
 */

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "serving/affinity.h"
#include "serving/batcher.h"
#include "serving/request_queue.h"
#include "serving/resilience.h"
#include "support/metrics.h"
#include "support/status.h"

namespace sod2 {
namespace serving {

/** One inference request as submitted by a client. */
struct Request
{
    std::vector<Tensor> inputs;
    /**
     * End-to-end deadline in wall seconds measured from submit();
     * covers queueing *and* execution. 0 = none. In queue past the
     * deadline -> shed typed, never executed; expiring mid-run -> the
     * engine's cooperative DeadlineExceeded.
     */
    double deadlineSeconds = 0.0;
    /** Higher runs first within a worker's queue; FIFO within equal. */
    int priority = 0;
    /** Per-request overrides of the server's default RunOptions
     *  (0 / false = inherit). */
    size_t arenaBudgetBytes = 0;
    bool fallbackOnError = false;
};

/** Server construction knobs. Every 0/default defers to the matching
 *  SOD2_SERVER_* env knob, then to the built-in default. */
struct ServerOptions
{
    /** Worker threads (== pinned RunContexts). 0 -> SOD2_SERVER_WORKERS
     *  -> 4. */
    int workers = 0;
    /** Total admitted-but-unstarted requests across all workers.
     *  0 -> SOD2_SERVER_QUEUE_DEPTH -> 64. */
    size_t queueDepth = 0;
    /**
     * Budget, in input-payload bytes, across all queued requests; 0 =
     * unlimited. A request that would exceed it is shed QueueFull —
     * except when the queue is completely empty, where it is admitted
     * regardless so an oversized-but-legal request is never permanently
     * unservable.
     */
    size_t queueBytesBudget = 0;
    /** Dispatch policy. Defaults from SOD2_SERVER_AFFINITY (-> shape). */
    AffinityMode affinity = defaultAffinityMode();
    /** Baseline engine guardrails for every request (per-request fields
     *  override). Its deadlineSeconds, when set, caps each run's
     *  cooperative deadline in addition to any request deadline. */
    RunOptions defaultRunOptions;
    /**
     * Largest request batch one worker coalesces into a single engine
     * run (serving/batcher.h). 1 disables batching (every request runs
     * alone, the pre-batching behavior). 0 -> SOD2_BATCH_MAX -> 8.
     *
     * Guardrail merge: batchmates may disagree on per-request options,
     * and the one stacked run takes the earliest member deadline, the
     * LOOSEST member arena budget (a member admitted with a tight
     * arenaBudgetBytes runs under a batchmate's wider cap — or
     * uncapped, when any member is uncapped — for that shared run),
     * and the interpreter fallback only when every member opted in.
     * When the merged (earliest) deadline expires mid-run, members
     * whose own deadline still has time are re-run individually under
     * their own guardrails instead of inheriting the straggler's
     * DeadlineExceeded (counted in ServerStats::deadlineRetries).
     */
    int maxBatchSize = 0;
    /**
     * Straggler window in microseconds: a worker holding a non-full
     * batch waits this long for compatible arrivals before running.
     * 0 = batch only what is already queued (no added latency).
     * Negative -> SOD2_BATCH_WAIT_US -> 0.
     */
    long long maxBatchWaitMicros = -1;
    /**
     * Pad-to-bucket batching: 1 groups requests by MVC-style batch-
     * compatibility key (batch extent masked) and pads the stacked
     * batch dim up to a power-of-two bucket; 0 keeps the exact-
     * signature fast path only. Negative -> SOD2_BATCH_PAD -> off.
     * Only takes effect when the compiled graph is stackable. Under
     * pad mode, dispatch routes by the compat key (not the exact
     * signature) so same-class requests share a worker queue.
     */
    int padBatches = -1;
    /**
     * Construct with the workers parked (not yet spawned): requests
     * queue but nothing executes until start(). Lets tests fill queues
     * deterministically (QueueFull, in-queue expiry, priority order).
     */
    bool startPaused = false;
    /**
     * Batch-failure bisection (DESIGN.md §15): when a coalesced run
     * fails as a whole (a stacked run's replicated "one fate" error,
     * the merged-earliest deadline, or a member denied its requested
     * interpreter fallback by the conservative merge), re-run the
     * members individually under their OWN guardrails so innocent
     * batchmates succeed bit-exactly and the failure is charged only
     * to the poison member(s). false restores the pre-bisection
     * behavior (only the merged-deadline retry).
     */
    bool isolateBatchFailures = true;
    /**
     * Per-signature circuit breaker + quarantine tuning
     * (serving/resilience.h). Negative fields defer to the
     * SOD2_BREAKER_* env knobs; the resolved default threshold is 0,
     * i.e. breakers (and suspect-signature quarantine) off.
     */
    BreakerOptions breaker;
    /**
     * Bounded in-worker retry for transient failures
     * (serving/resilience.h). Negative fields defer to the
     * SOD2_RETRY_* env knobs; the resolved default budget is 0, i.e.
     * retries off.
     */
    RetryOptions retry;
    /**
     * Watchdog scan interval in milliseconds: a background thread
     * flags workers stuck past their run deadline + grace and gates
     * health().ready. 0 disables the watchdog. Negative ->
     * SOD2_WATCHDOG_MS -> 100.
     */
    long long watchdogIntervalMillis = -1;
    /** Grace past a run's effective deadline before the watchdog
     *  declares the worker stuck. */
    double watchdogGraceSeconds = 0.25;
    /**
     * Called once per resolved *executed* request, with the request's
     * shape signature and its final RunResult, from the worker thread
     * right before the future resolves (shed paths — QueueFull,
     * in-queue expiry, shutdown discards — are not executions and are
     * not observed). The fleet router hooks this to feed its
     * observed-vs-predicted latency EWMA. Must be thread-safe and
     * cheap; it runs on the serving hot path.
     */
    std::function<void(uint64_t signature, const RunResult& result)>
        completionObserver;
};

/** Knobs of one blue/green engine swap (swapEngine). */
struct SwapOptions
{
    /**
     * Input sets to warm on the incoming engine BEFORE admission
     * switches: each pre-instantiates its signature's plan (and, under
     * shape affinity, pins the worker assignment), so the first green
     * request of a known shape is already a cache hit. Pointers must
     * stay valid for the duration of the call.
     */
    std::vector<const std::vector<Tensor>*> warmupInputs;
    /**
     * true: requests still queued for the OLD engine are shed with a
     * typed Shutdown result ("superseded by engine swap") instead of
     * executing — in-flight runs are never interrupted either way.
     * false (default): queued blue requests run to completion on the
     * old engine.
     */
    bool hardCutover = false;
    /**
     * true (default): block until every old-engine request (queued and
     * in-flight) has resolved — on return the old engine may be
     * destroyed. false: return right after admission switches; the
     * CALLER must then keep the old engine alive until its last
     * request resolves.
     */
    bool waitForDrain = true;
};

/** Monotonic request accounting (consistent snapshot via stats()). */
struct ServerStats
{
    /** Every submit() call. == admitted + shed, always. */
    uint64_t submitted = 0;
    /** Entered a worker queue. */
    uint64_t admitted = 0;
    /** Rejected with a typed code without entering a queue (QueueFull,
     *  invalid input, submitted after shutdown). */
    uint64_t shed = 0;
    /** Admitted but shed at dequeue: deadline already expired
     *  (DeadlineExceeded, never executed) — subset of neither admitted
     *  nor shed double-counting: expired requests count in admitted. */
    uint64_t expired = 0;
    /** Discarded by a non-draining shutdown (typed Shutdown). */
    uint64_t discarded = 0;
    /** Executed with an ok() result. */
    uint64_t completed = 0;
    /** Executed but finished with a typed error (after any fallback). */
    uint64_t failed = 0;
    /** Batch executions (one engine dispatch each; a solo request
     *  counts as a batch of one). completed / batches ≈ mean batch. */
    uint64_t batches = 0;
    /** Zero rows stacked to reach a pad bucket (pad waste, in batch
     *  rows; only grows under padBatches). */
    uint64_t padRows = 0;
    /** Members re-run individually after a stacked run expired on the
     *  merged (earliest batchmate) deadline while their own deadline
     *  still had time — the batch sheds together, but a straggler's
     *  expiry must not fail its batchmates. */
    uint64_t deadlineRetries = 0;
    /** Members re-run individually by batch-failure bisection after a
     *  coalesced run failed as a whole (superset of deadlineRetries:
     *  every bisection re-run counts here). */
    uint64_t batchRetries = 0;
    /** Bisected members whose failure survived the solo re-run — the
     *  poison member(s) a batch failure was charged to. */
    uint64_t poisonIsolated = 0;
    /** Bounded in-worker retries of transient failures (one per retry
     *  attempt, successful or not). */
    uint64_t transientRetries = 0;
    /** Circuit-breaker trips (closed->open, plus half-open re-opens). */
    uint64_t breakerTrips = 0;
    /** Requests shed typed kCircuitOpen by an open breaker. */
    uint64_t circuitShed = 0;
    /** Half-open probe requests admitted through a tripped breaker. */
    uint64_t breakerProbes = 0;
    /** Times the watchdog newly flagged a worker stuck past its run
     *  deadline + grace. */
    uint64_t watchdogStalls = 0;
    /** Requests currently queued / currently executing. */
    size_t queueDepth = 0;
    size_t inflight = 0;
};

/** One worker's row in ServerHealth. */
struct WorkerHealth
{
    size_t index = 0;
    size_t queueDepth = 0;
    /** Executing a batch right now. */
    bool busy = false;
    /** Flagged by the watchdog: busy past its run deadline + grace. */
    bool stuck = false;
    /** Seconds since this worker last made observable progress
     *  (dequeued work or finished a batch); 0 before first dispatch. */
    double secondsSinceProgress = 0.0;
    /** Seconds past the current run's effective deadline (0 when idle,
     *  deadline-less, or not yet overdue). */
    double deadlineOverrunSeconds = 0.0;
    /** This worker's arena capacity after its last batch (bytes). */
    size_t arenaBytes = 0;
};

/** One consistent health/readiness snapshot (Sod2Server::health()). */
struct ServerHealth
{
    /** Serving and safe to route to: started, accepting, no swap in
     *  progress, and no worker flagged stuck. */
    bool ready = false;
    bool started = false;
    bool accepting = false;
    /** A blue/green swapEngine is mid-flight (readiness gate: traffic
     *  routed now may land on either engine's warmup edge). */
    bool swapInProgress = false;
    size_t queueDepth = 0;
    size_t inflight = 0;
    /** Resolved-request count per ErrorCode (index by
     *  static_cast<int>(code); kOk counts successes, so per-code error
     *  rates have their denominator in the same snapshot). */
    std::array<uint64_t, kErrorCodeCount> errorCounts{};
    std::vector<WorkerHealth> workers;
    /** Breaker rows for every signature with uncleared failures. */
    std::vector<BreakerHealth> breakers;
};

/**
 * Multi-worker scheduler over one engine. All public methods are
 * thread-safe; the engine must outlive the server. The destructor
 * performs a draining shutdown.
 */
class Sod2Server
{
  public:
    explicit Sod2Server(const Sod2Engine* engine, ServerOptions options = {});
    ~Sod2Server();

    Sod2Server(const Sod2Server&) = delete;
    Sod2Server& operator=(const Sod2Server&) = delete;

    /**
     * Validates, admits or sheds, and eventually resolves the returned
     * future with the run's RunResult. Never throws for per-request
     * failures — sheds and errors arrive as typed RunResults (QueueFull,
     * DeadlineExceeded, Shutdown, InvalidInput, ...), so a load test can
     * account for every outcome. Outputs in an ok() result are deep
     * copies owned by the caller.
     */
    std::future<RunResult> submit(Request request);

    /** Synchronous convenience: submit() + wait. */
    RunResult run(Request request);

    /** Pre-instantiates the plan for @p inputs' signature and, under
     *  shape affinity, pins the signature's worker assignment — call at
     *  startup so the first real request is a warm hit. */
    bool warmup(const std::vector<Tensor>& inputs);

    /** Spawns the workers of a startPaused server (idempotent). */
    void start();

    /** Blocks until every admitted request has been resolved (queues
     *  empty, nothing inflight). Starts a paused server first. */
    void drain();

    /**
     * Stops the server (idempotent; submit() afterwards sheds typed
     * Shutdown). @p drain_pending true executes everything already
     * queued first; false fails each still-queued request with a typed
     * Shutdown result and stops as soon as inflight runs finish.
     */
    void shutdown(bool drain_pending = true);

    /**
     * Blue/green engine swap (zero-downtime reload; DESIGN.md §14).
     * Warms @p next per @p opts, then atomically switches admission:
     * every request admitted after the switch runs on @p next, every
     * request admitted before it runs (or completes) on the old engine
     * — a request is never dropped or executed on a different engine
     * than the one it was validated against, and batches never mix the
     * two. Old-engine queue handling and drain behavior follow
     * @p opts; @p next must outlive the server (like the constructor
     * engine). Serialized against concurrent swaps; a no-op returning
     * 0 after shutdown. Returns the number of requests shed by a hard
     * cutover.
     */
    size_t swapEngine(const Sod2Engine* next, const SwapOptions& opts = {});

    /** One mutually consistent accounting snapshot. */
    ServerStats stats() const;

    /** Health/readiness snapshot: lifecycle flags, queue/inflight
     *  depths, per-code outcome counts, per-worker progress, and every
     *  live breaker row (DESIGN.md §15). Safe to poll concurrently
     *  with serving. */
    ServerHealth health() const;

    int workers() const { return static_cast<int>(workers_.size()); }
    AffinityMode affinity() const { return policy_.mode(); }
    /** The resolved batching policy this server dispatches under. */
    const BatchPolicy& batchPolicy() const { return batch_policy_; }
    /** The engine new admissions currently run on (changes across
     *  swapEngine; the reference is only stable until the next swap). */
    const Sod2Engine& engine() const;

    /** The worker @p signature routes to right now (under kShape this
     *  also pins the assignment, exactly like a dispatch would). */
    size_t workerFor(uint64_t signature);

    /**
     * Sum of every worker arena's capacity, in bytes, as of each
     * worker's last completed batch (a lock-free mirror — a run in
     * flight may have grown its arena already). The fleet governor's
     * per-member residency signal.
     */
    size_t residentArenaBytes() const;

    /**
     * Drops every worker arena's backing buffer (capacity -> 0); the
     * next run on each worker re-reserves exactly what its plan needs.
     * On a running server this enqueues one highest-priority
     * maintenance item per worker and blocks until each has executed
     * on its own thread — never racing an in-flight run; on a paused
     * or stopped server the arenas are trimmed inline. @p after, when
     * set, runs on the worker thread right after each trim (the fleet
     * governor reconciles its ledger there). Returns the number of
     * worker arenas trimmed. Safe to call concurrently with serving;
     * an admission-closed server still trims (trim is maintenance,
     * not a request).
     */
    size_t trimArenas(
        const std::function<void(const RunContext&)>& after = {});

  private:
    struct Worker
    {
        RequestQueue queue;
        RunContext ctx;
        std::thread thread;
        /** Watchdog instrumentation (all relaxed: monitoring only).
         *  busyDeadlineUs is the current run's effective absolute
         *  deadline in steady-clock microseconds (0 = none);
         *  lastProgressUs is the last dequeue/completion timestamp. */
        std::atomic<bool> busy{false};
        std::atomic<bool> stuck{false};
        std::atomic<int64_t> busyDeadlineUs{0};
        std::atomic<int64_t> lastProgressUs{0};
        /** Arena capacity after the last batch/trim on this worker
         *  (relaxed mirror for residentArenaBytes()/health()). */
        std::atomic<size_t> arenaBytes{0};
    };

    void workerLoop(size_t index);
    void watchdogLoop();
    std::vector<size_t> workerLoads() const;
    /** Resolves @p p's promise with a typed non-executed result,
     *  releasing a held breaker-probe slot and recording the per-code
     *  outcome count. Callable with or without mu_ held. */
    void failPending(Pending& p, ErrorCode code,
                     const std::string& message);
    /** Drops one admitted request of @p epoch from the per-epoch live
     *  count (requires mu_; no-op for untracked epochs). */
    void releaseEpochLocked(uint64_t epoch);
    /** Live (queued + in-flight) requests admitted under @p epoch
     *  (requires mu_). */
    size_t epochLiveLocked(uint64_t epoch) const;

    /** Engine new admissions bind to; guarded by mu_ (swapEngine
     *  replaces it). Workers never read this for execution — each
     *  Pending carries the engine it was admitted against. */
    const Sod2Engine* engine_;
    ServerOptions options_;
    size_t queue_depth_cap_;
    AffinityPolicy policy_;
    BatchPolicy batch_policy_;
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Guards admission accounting (queued count/bytes), lifecycle
     *  flags, and the stats counters' cross-field consistency. */
    mutable std::mutex mu_;
    /** Signaled whenever queued/inflight drops (drain waits on it). */
    std::condition_variable idle_cv_;
    bool started_ = false;
    bool accepting_ = true;
    bool stopped_ = false;
    size_t queued_count_ = 0;
    size_t queued_bytes_ = 0;
    size_t inflight_ = 0;
    uint64_t next_seq_ = 0;
    /** Admission epoch: bumped by every swapEngine. A request's epoch
     *  identifies the engine it was validated against; batching never
     *  crosses epochs. Guarded by mu_. */
    uint64_t engine_epoch_ = 0;
    /** Per-epoch count of admitted-but-unresolved requests; an epoch's
     *  entry disappears when its last request resolves (the swap-drain
     *  wait condition). Guarded by mu_. */
    std::map<uint64_t, size_t> epoch_live_;
    /** Serializes swapEngine calls (admission keeps flowing under mu_;
     *  only concurrent SWAPS are mutually exclusive). */
    std::mutex swap_mu_;
    /** True for the whole duration of a swapEngine call — the
     *  health().ready gate during blue/green cutover. */
    std::atomic<bool> swap_in_progress_{false};
    ServerStats counts_;

    /** Per-signature circuit breaker + quarantine (DESIGN.md §15).
     *  Lock order: mu_ / queue locks may be held when its methods are
     *  called, never the reverse. */
    SignatureScoreboard scoreboard_;
    /** Resolved transient-retry policy (RetryOptions::resolved()). */
    RetryOptions retry_opts_;
    /** Resolved watchdog scan interval (ms; 0 = disabled). */
    long long watchdog_interval_ms_ = 0;
    std::thread watchdog_;
    std::mutex watchdog_mu_;
    std::condition_variable watchdog_cv_;
    bool watchdog_stop_ = false;
    /** Per-ErrorCode resolved-request counts (lock-free: bumped on
     *  every promise resolution, including shed paths that hold mu_). */
    std::array<std::atomic<uint64_t>, kErrorCodeCount> error_counts_{};

    /** Process-wide metric mirrors ("server.*", support/metrics.h). */
    Counter* metric_admitted_;
    Counter* metric_shed_;
    Counter* metric_expired_;
    Counter* metric_completed_;
    Counter* metric_batches_;
    Counter* metric_pad_rows_;
    Counter* metric_deadline_retries_;
    Counter* metric_batch_retries_;
    Counter* metric_poison_isolated_;
    Counter* metric_transient_retries_;
    Counter* metric_circuit_shed_;
    Counter* metric_breaker_trips_;
    Counter* metric_breaker_probes_;
    Counter* metric_watchdog_stalls_;
    Histogram* metric_batch_size_;
    Gauge* metric_queue_depth_;
    Gauge* metric_inflight_;
};

}  // namespace serving
}  // namespace sod2

#endif  // SOD2_SERVING_SERVER_H_
