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
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sod2_engine.h"
#include "serving/affinity.h"
#include "serving/request_queue.h"
#include "serving/resilience.h"
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

/** Server construction knobs. The constructor rejects workers <= 0
 *  and queueDepth == 0 with a typed InvalidInput error. */
struct ServerOptions
{
    /** Worker threads (== pinned RunContexts); at least 1. */
    int workers = 4;
    /** Total admitted-but-unstarted requests across all workers; at
     *  least 1. */
    size_t queueDepth = 64;
    /**
     * Budget, in input-payload bytes, across all queued requests; 0 =
     * unlimited. A request that would exceed it is shed QueueFull —
     * except when the queue is completely empty, where it is admitted
     * regardless so an oversized-but-legal request is never permanently
     * unservable.
     */
    size_t queueBytesBudget = 0;
    /** Dispatch policy. */
    AffinityMode affinity = AffinityMode::kShape;
    /** Baseline engine guardrails for every request (per-request fields
     *  override). Its deadlineSeconds, when set, caps each run's
     *  cooperative deadline in addition to any request deadline. */
    RunOptions defaultRunOptions;
    /**
     * Construct with the workers parked (not yet spawned): requests
     * queue but nothing executes until start(). Lets tests fill queues
     * deterministically (QueueFull, in-queue expiry, priority order).
     */
    bool startPaused = false;
    /**
     * Per-signature circuit breaker tuning (serving/resilience.h). The
     * default threshold is 0, i.e. breakers off.
     */
    BreakerOptions breaker;
    /**
     * Bounded in-worker retry for transient failures
     * (serving/resilience.h). The default budget is 0, i.e. retries
     * off.
     */
    RetryOptions retry;
    /**
     * Watchdog scan interval in milliseconds: a background thread
     * flags workers stuck past their run deadline + grace and gates
     * health().ready. 0 (or negative) disables the watchdog.
     */
    long long watchdogIntervalMillis = 100;
    /** Grace past a run's effective deadline before the watchdog
     *  declares the worker stuck. */
    double watchdogGraceSeconds = 0.25;
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
    /** Executed requests: one per request handed to the engine
     *  (in-queue expiry sheds are not), so batches == completed +
     *  failed; a request's transient retries count once. perfbench
     *  reports batches / completed as serving.batches_per_req. */
    uint64_t batches = 0;
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
    /** Executing a request right now. */
    bool busy = false;
    /** Flagged by the watchdog: busy past its run deadline + grace. */
    bool stuck = false;
    /** Seconds since this worker last made observable progress
     *  (dequeued or finished a request); 0 before first dispatch. */
    double secondsSinceProgress = 0.0;
    /** Seconds past the current run's effective deadline (0 when idle,
     *  deadline-less, or not yet overdue). */
    double deadlineOverrunSeconds = 0.0;
    /** This worker's arena capacity after its last run (bytes). */
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
    /** Throws a typed InvalidInput Error when @p options has no
     *  worker or a zero queue depth. */
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
     * than the one it was validated against. Old-engine queue handling
     * and drain behavior follow
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
    /** The engine new admissions currently run on (changes across
     *  swapEngine; the reference is only stable until the next swap). */
    const Sod2Engine& engine() const;

    /** The worker @p signature routes to right now (under kShape this
     *  also pins the assignment, exactly like a dispatch would). */
    size_t workerFor(uint64_t signature);

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
        /** Arena capacity after the last run on this worker (relaxed
         *  mirror for health()). */
        std::atomic<size_t> arenaBytes{0};
    };

    void workerLoop(size_t index);
    void watchdogLoop();
    /** Resolves @p p's promise with a typed non-executed result,
     *  releasing a held breaker-probe slot and recording the per-code
     *  outcome count. Callable with or without mu_ held. */
    void failPending(Pending& p, ErrorCode code,
                     const std::string& message);
    /** Fails every request in @p items with a typed Shutdown result and
     *  releases its admission accounting (shutdown's queue sweeps). */
    void discardQueued(std::deque<Pending> items);
    /** Drops one admitted request of @p epoch from the per-epoch live
     *  count (requires mu_). */
    void releaseEpochLocked(uint64_t epoch);
    /** Live (queued + in-flight) requests admitted under @p epoch
     *  (requires mu_). */
    size_t epochLiveLocked(uint64_t epoch) const;

    /** Engine new admissions bind to; guarded by mu_ (swapEngine
     *  replaces it). Workers never read this for execution — each
     *  Pending carries the engine it was admitted against. */
    const Sod2Engine* engine_;
    ServerOptions options_;
    AffinityPolicy policy_;
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
     *  identifies the engine it was validated against. Guarded by
     *  mu_. */
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

    /** Per-signature circuit breaker (DESIGN.md §15).
     *  Lock order: mu_ / queue locks may be held when its methods are
     *  called, never the reverse. */
    SignatureScoreboard scoreboard_;
    std::thread watchdog_;
    std::mutex watchdog_mu_;
    std::condition_variable watchdog_cv_;
    bool watchdog_stop_ = false;
    /** Per-ErrorCode resolved-request counts (lock-free: bumped on
     *  every promise resolution, including shed paths that hold mu_). */
    std::array<std::atomic<uint64_t>, kErrorCodeCount> error_counts_{};
};

}  // namespace serving
}  // namespace sod2

#endif  // SOD2_SERVING_SERVER_H_
