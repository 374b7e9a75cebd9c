#include "serving/server.h"

#include <algorithm>
#include <utility>

#include "support/logging.h"
#include "support/string_util.h"

namespace sod2 {
namespace serving {

namespace {

/** @p options, or a typed InvalidInput error when it has no worker or
 *  a zero queue depth (a server that would shed every request). */
const ServerOptions&
validated(const ServerOptions& options)
{
    SOD2_CHECK_CODE(options.workers > 0, ErrorCode::kInvalidInput)
        << "Sod2Server needs at least one worker, got "
        << options.workers;
    SOD2_CHECK_CODE(options.queueDepth > 0, ErrorCode::kInvalidInput)
        << "Sod2Server needs a positive queue depth";
    return options;
}

size_t
payloadBytes(const std::vector<Tensor>& inputs)
{
    size_t total = 0;
    for (const Tensor& t : inputs)
        total += t.byteSize();
    return total;
}

double
secondsUntil(std::chrono::steady_clock::time_point deadline,
             std::chrono::steady_clock::time_point now)
{
    return std::chrono::duration<double>(deadline - now).count();
}

/** Steady-clock microseconds (the watchdog's shared time base). */
int64_t
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

size_t
codeIndex(ErrorCode code)
{
    int i = static_cast<int>(code);
    return i >= 0 && i < kErrorCodeCount ? static_cast<size_t>(i)
                                         : static_cast<size_t>(
                                               ErrorCode::kInternal);
}

/** tryRun with owning outputs: the engine's alias the worker context's
 *  arena, which the worker's next run overwrites. */
RunResult
runOwned(const Sod2Engine& engine, RunContext& ctx,
         const std::vector<Tensor>& inputs, const RunOptions& opts)
{
    RunResult r = engine.tryRun(ctx, inputs, nullptr, opts);
    try {
        for (Tensor& t : r.outputs)
            t = t.clone();
    } catch (const std::exception& e) {
        // tryRun never throws; a failed copy must not kill the worker.
        r.outputs.clear();
        r.code = ErrorCode::kInternal;
        r.message = e.what();
    }
    return r;
}

}  // namespace

Sod2Server::Sod2Server(const Sod2Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(validated(options)),
      policy_(options_.affinity, static_cast<size_t>(options_.workers))
{
    SOD2_CHECK(engine != nullptr) << "Sod2Server needs a compiled engine";
    scoreboard_.configure(options_.breaker);
    workers_.reserve(static_cast<size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    if (!options_.startPaused)
        start();
}

Sod2Server::~Sod2Server()
{
    shutdown(/*drain_pending=*/true);
}

void
Sod2Server::start()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopped_)
        return;
    started_ = true;
    for (size_t i = 0; i < workers_.size(); ++i)
        workers_[i]->thread =
            std::thread([this, i] { workerLoop(i); });
    if (options_.watchdogIntervalMillis > 0 && !watchdog_.joinable())
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

size_t
Sod2Server::workerFor(uint64_t signature)
{
    return policy_.pick(signature);
}

void
Sod2Server::failPending(Pending& p, ErrorCode code,
                        const std::string& message)
{
    // A dropped probe must release its half-open slot or the breaker
    // wedges (no further probe would ever be admitted).
    if (p.breakerProbe)
        scoreboard_.onProbeDropped(p.signature);
    error_counts_[codeIndex(code)].fetch_add(
        1, std::memory_order_relaxed);
    RunResult r;
    r.code = code;
    r.message = message;
    p.promise.set_value(std::move(r));
}

std::future<RunResult>
Sod2Server::submit(Request request)
{
    std::promise<RunResult> promise;
    std::future<RunResult> future = promise.get_future();

    // Admission check 1: is the server taking requests at all? Also
    // captures the admission engine + epoch. Validation (check 2) runs
    // outside the lock against this engine; check 3 revalidates the
    // epoch under the lock and restarts validation when a swap landed
    // in between — so a request is never queued with a signature
    // computed by one engine and an epoch belonging to another
    // (misrouting across a blue/green swap).
    const Sod2Engine* eng = nullptr;
    uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!accepting_) {
            ++counts_.submitted;
            ++counts_.shed;
            error_counts_[codeIndex(ErrorCode::kShutdown)].fetch_add(
                1, std::memory_order_relaxed);
            RunResult r;
            r.code = ErrorCode::kShutdown;
            r.message = "server is shut down";
            promise.set_value(std::move(r));
            return future;
        }
        eng = engine_;
        epoch = engine_epoch_;
    }

    Pending pending;
    pending.priority = request.priority;
    pending.bytes = payloadBytes(request.inputs);
    pending.runOptions = options_.defaultRunOptions;
    if (request.arenaBudgetBytes > 0)
        pending.runOptions.arenaBudgetBytes = request.arenaBudgetBytes;
    if (request.fallbackOnError)
        pending.runOptions.fallbackOnError = true;
    if (request.deadlineSeconds > 0.0)
        pending.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(request.deadlineSeconds));
    pending.promise = std::move(promise);

    for (;;) {
        // Admission check 2: request validation — reuses the engine's
        // typed upfront checks (arity/dtype/rank/binding) and yields
        // the shape signature the dispatch routes on.
        uint64_t signature = 0;
        try {
            signature = eng->signatureFor(request.inputs);
        } catch (const Error& e) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counts_.submitted;
                ++counts_.shed;
            }
            failPending(pending, e.code(), e.what());
            return future;
        }
        pending.signature = signature;

        // Admission check 3: depth and bytes budgets, reserved
        // atomically so concurrent submits cannot jointly overflow.
        // The bytes budget is waived for a request arriving at an
        // empty queue ("admit when alone"): one oversized-but-legal
        // request must stay servable.
        std::lock_guard<std::mutex> lock(mu_);
        if (!accepting_) {
            ++counts_.submitted;
            ++counts_.shed;
            failPending(pending, ErrorCode::kShutdown,
                        "server is shut down");
            return future;
        }
        if (epoch != engine_epoch_) {
            // A swap switched admission mid-validation: revalidate the
            // request against the NEW engine (its signature schema may
            // differ) before admitting it into the new epoch.
            eng = engine_;
            epoch = engine_epoch_;
            continue;
        }
        ++counts_.submitted;
        if (queued_count_ >= options_.queueDepth) {
            ++counts_.shed;
            failPending(pending, ErrorCode::kQueueFull,
                        strFormat("admission queue full (%zu queued, "
                                  "depth cap %zu)",
                                  queued_count_, options_.queueDepth));
            return future;
        }
        if (options_.queueBytesBudget > 0 && queued_count_ > 0 &&
            queued_bytes_ + pending.bytes > options_.queueBytesBudget) {
            ++counts_.shed;
            failPending(pending, ErrorCode::kQueueFull,
                        strFormat("admission bytes budget exceeded "
                                  "(%zu queued + %zu request > %zu budget)",
                                  queued_bytes_, pending.bytes,
                                  options_.queueBytesBudget));
            return future;
        }
        // Admission check 4: the per-signature circuit breaker. An
        // open breaker sheds fast with a typed kCircuitOpen (the plan
        // for this exact signature failed its last N attempts); once
        // its cooldown elapses exactly one request is admitted as the
        // half-open probe, marked so it reports back.
        switch (scoreboard_.admit(pending.signature)) {
          case SignatureScoreboard::Admission::kShed:
            ++counts_.shed;
            ++counts_.circuitShed;
            failPending(pending, ErrorCode::kCircuitOpen,
                        strFormat("circuit open for shape signature "
                                  "%016llx; shedding until the cooldown "
                                  "probe proves it healthy",
                                  static_cast<unsigned long long>(
                                      pending.signature)));
            return future;
          case SignatureScoreboard::Admission::kProbe:
            pending.breakerProbe = true;
            ++counts_.breakerProbes;
            break;
          case SignatureScoreboard::Admission::kAdmit:
            break;
        }
        ++queued_count_;
        queued_bytes_ += pending.bytes;
        ++counts_.admitted;
        ++epoch_live_[epoch];
        pending.seq = next_seq_++;
        break;
    }
    pending.engine = eng;
    pending.epoch = epoch;
    pending.inputs = std::move(request.inputs);

    size_t target = workerFor(pending.signature);
    if (!workers_[target]->queue.push(std::move(pending))) {
        // Raced with shutdown: the queue closed between admission and
        // push. Reverse the admission and shed typed.
        {
            std::lock_guard<std::mutex> lock(mu_);
            --queued_count_;
            queued_bytes_ -= pending.bytes;
            --counts_.admitted;
            ++counts_.shed;
            releaseEpochLocked(pending.epoch);
        }
        failPending(pending, ErrorCode::kShutdown,
                    "server shut down before dispatch");
        idle_cv_.notify_all();
    }
    return future;
}

RunResult
Sod2Server::run(Request request)
{
    return submit(std::move(request)).get();
}

bool
Sod2Server::warmup(const std::vector<Tensor>& inputs)
{
    const Sod2Engine* eng = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        eng = engine_;
    }
    // Pin the affinity assignment first so the warmed plan and the
    // routed worker agree from request one.
    workerFor(eng->signatureFor(inputs));
    return eng->warmup(inputs);
}

const Sod2Engine&
Sod2Server::engine() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return *engine_;
}

void
Sod2Server::releaseEpochLocked(uint64_t epoch)
{
    auto it = epoch_live_.find(epoch);
    if (it == epoch_live_.end())
        return;
    if (--it->second == 0)
        epoch_live_.erase(it);
}

size_t
Sod2Server::epochLiveLocked(uint64_t epoch) const
{
    auto it = epoch_live_.find(epoch);
    return it == epoch_live_.end() ? 0 : it->second;
}

void
Sod2Server::workerLoop(size_t index)
{
    Worker& worker = *workers_[index];
    worker.ctx.traceBuffer().setLaneName(
        strFormat("server-worker-%zu", index));
    Pending p;
    while (worker.queue.pop(&p)) {
        worker.lastProgressUs.store(nowMicros(),
                                    std::memory_order_relaxed);

        // Account the dequeue. Bytes are released here even for a
        // request shed moments later on in-queue deadline expiry, so
        // sustained expiry can never leak admission budget. The
        // request counts as inflight until its promise resolves
        // (including the expired-shed path) so drain() cannot observe
        // queued==0 && inflight==0 with a future still pending.
        {
            std::lock_guard<std::mutex> lock(mu_);
            --queued_count_;
            queued_bytes_ -= p.bytes;
            ++inflight_;
        }

        // In-queue expiry: shed typed without executing.
        const auto now = std::chrono::steady_clock::now();
        const bool has_deadline =
            p.deadline != std::chrono::steady_clock::time_point::max();
        if (has_deadline && now >= p.deadline) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counts_.expired;
                releaseEpochLocked(p.epoch);
            }
            failPending(p, ErrorCode::kDeadlineExceeded,
                        "deadline expired while queued; request shed "
                        "without executing");
            {
                std::lock_guard<std::mutex> lock(mu_);
                --inflight_;
            }
            idle_cv_.notify_all();
            continue;
        }

        // The request's own guardrails. The engine gets the *remaining*
        // time (capped by the server default's deadline), so mid-run
        // expiry surfaces its cooperative group-boundary error
        // unchanged.
        RunOptions opts = p.runOptions;
        if (has_deadline) {
            const double remaining = secondsUntil(p.deadline, now);
            opts.deadlineSeconds =
                opts.deadlineSeconds > 0.0
                    ? std::min(opts.deadlineSeconds, remaining)
                    : remaining;
        }
        // Watchdog instrumentation: mark the worker busy with the run
        // deadline so a hung dispatch is detectable.
        worker.busyDeadlineUs.store(
            opts.deadlineSeconds > 0.0
                ? nowMicros() +
                      static_cast<int64_t>(opts.deadlineSeconds * 1e6)
                : 0,
            std::memory_order_relaxed);
        worker.busy.store(true, std::memory_order_relaxed);

        // The request executes on the engine it was admitted against,
        // so a blue/green swap never re-routes an admitted request.
        const Sod2Engine& engine = *p.engine;
        RunResult result = runOwned(engine, worker.ctx, p.inputs, opts);

        // Bounded transient retry (DESIGN.md §15): a transient failure
        // (arena pressure that may clear, a one-off plan/cache-publish
        // fault) gets up to maxAttempts re-runs under decorrelated-
        // jitter backoff, deadline-aware so a retry never spends time
        // the request no longer has.
        if (options_.retry.enabled() && !result.ok() &&
            transientRetryable(result.code)) {
            RetryBackoff backoff(options_.retry, p.seq + 1);
            for (int attempt = 0; attempt < options_.retry.maxAttempts;
                 ++attempt) {
                const long long delay = backoff.nextDelayMicros();
                RunOptions own = p.runOptions;
                int64_t own_deadline_us = 0;
                if (has_deadline) {
                    double remaining = secondsUntil(
                        p.deadline, std::chrono::steady_clock::now());
                    // The backoff sleep must fit in the remaining
                    // budget with time left to actually run.
                    if (remaining * 1e6 <= static_cast<double>(delay))
                        break;
                    double after_sleep =
                        remaining - static_cast<double>(delay) / 1e6;
                    own.deadlineSeconds =
                        own.deadlineSeconds > 0.0
                            ? std::min(own.deadlineSeconds, after_sleep)
                            : after_sleep;
                    own_deadline_us =
                        nowMicros() + static_cast<int64_t>(remaining * 1e6);
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay));
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++counts_.transientRetries;
                }
                worker.busyDeadlineUs.store(own_deadline_us,
                                            std::memory_order_relaxed);
                result = runOwned(engine, worker.ctx, p.inputs, own);
                if (result.ok() || !transientRetryable(result.code))
                    break;
            }
        }

        // Report the final fate to the breaker scoreboard. Probes MUST
        // report (success re-closes, charged failure re-opens); regular
        // requests charge consecutive-failure streaks that trip the
        // breaker at the threshold.
        if (scoreboard_.enabled()) {
            if (result.ok()) {
                scoreboard_.onSuccess(p.signature, p.breakerProbe);
            } else if (scoreboard_.onFailure(p.signature, result.code,
                                             p.breakerProbe)) {
                std::lock_guard<std::mutex> lock(mu_);
                ++counts_.breakerTrips;
            }
        }

        // The arena mirror must be current BEFORE the future resolves:
        // a caller that run()s synchronously and then reads health()
        // must see the capacity this run left behind.
        worker.arenaBytes.store(worker.ctx.arena().capacity(),
                                std::memory_order_relaxed);

        // Order matters for drain()'s guarantee: counters final, then
        // the promise resolves, then inflight drops — so a waiter woken
        // by inflight==0 sees every future ready and every count final.
        const bool ok = result.ok();
        error_counts_[codeIndex(result.code)].fetch_add(
            1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counts_.batches;
            if (ok)
                ++counts_.completed;
            else
                ++counts_.failed;
            releaseEpochLocked(p.epoch);
        }
        p.promise.set_value(std::move(result));
        {
            std::lock_guard<std::mutex> lock(mu_);
            --inflight_;
        }
        worker.busy.store(false, std::memory_order_relaxed);
        worker.busyDeadlineUs.store(0, std::memory_order_relaxed);
        worker.stuck.store(false, std::memory_order_relaxed);
        worker.lastProgressUs.store(nowMicros(),
                                    std::memory_order_relaxed);
        idle_cv_.notify_all();
    }
}

void
Sod2Server::drain()
{
    start();  // a paused server cannot drain itself
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock,
                  [&] { return queued_count_ == 0 && inflight_ == 0; });
}

size_t
Sod2Server::swapEngine(const Sod2Engine* next, const SwapOptions& opts)
{
    SOD2_CHECK(next != nullptr) << "swapEngine needs a compiled engine";
    // One swap at a time; admission keeps flowing under mu_ throughout.
    std::lock_guard<std::mutex> swap_lock(swap_mu_);

    // Readiness gate: health().ready is false for the whole swap, so a
    // load balancer polling it routes around the cutover window.
    struct SwapFlag
    {
        std::atomic<bool>& flag;
        explicit SwapFlag(std::atomic<bool>& f) : flag(f)
        {
            flag.store(true, std::memory_order_relaxed);
        }
        ~SwapFlag() { flag.store(false, std::memory_order_relaxed); }
    } swap_flag(swap_in_progress_);

    // Phase 1 — warm the green engine while blue still serves: plan
    // instantiation and affinity pinning happen before a single
    // request is admitted to it, so the cutover has no cold start.
    for (const std::vector<Tensor>* inputs : opts.warmupInputs) {
        policy_.pick(next->signatureFor(*inputs));
        next->warmup(*inputs);
    }

    // Phase 2 — atomic admission switch. From the next submit on,
    // every request validates against (and runs on) the green engine;
    // requests already admitted keep their engine pointer and epoch.
    uint64_t old_epoch = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_)
            return 0;  // shut down: nothing to swap to or from
        old_epoch = engine_epoch_;
        engine_ = next;
        ++engine_epoch_;
    }
    // The green engine's plans are a clean slate: breaker state earned
    // against blue's compilation says nothing about them. (Blue
    // stragglers may re-add rows as they resolve; they age out the
    // same way any failure streak does.)
    scoreboard_.reset();
    // Phase 3 — old-queue policy. Hard cutover sheds still-queued
    // pre-swap requests with a typed Shutdown result; green requests
    // that already landed in the same queues are re-enqueued
    // untouched. In-flight runs are never interrupted on either path.
    size_t shed = 0;
    if (opts.hardCutover) {
        for (auto& w : workers_) {
            std::deque<Pending> items = w->queue.drainNow();
            for (Pending& p : items) {
                if (p.epoch > old_epoch) {
                    if (w->queue.push(std::move(p)))
                        continue;
                    // Queue closed by a concurrent shutdown: fall
                    // through to the typed shed below.
                }
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    --queued_count_;
                    queued_bytes_ -= p.bytes;
                    ++counts_.discarded;
                    releaseEpochLocked(p.epoch);
                }
                failPending(p, ErrorCode::kShutdown,
                            "request superseded by engine swap");
                ++shed;
            }
        }
        idle_cv_.notify_all();
    }

    // Phase 4 — drain blue. Its epoch's live count covers queued and
    // in-flight requests alike, so zero means every blue future is
    // resolved — the old engine may be destroyed the moment this
    // returns.
    if (opts.waitForDrain) {
        std::unique_lock<std::mutex> lock(mu_);
        idle_cv_.wait(lock,
                      [&] { return epochLiveLocked(old_epoch) == 0; });
    }
    return shed;
}

void
Sod2Server::shutdown(bool drain_pending)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_)
            return;
        accepting_ = false;
        stopped_ = true;
    }

    if (drain_pending) {
        // Everything already queued still runs: start parked workers,
        // close the queues (drain-on-close), and join.
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!started_) {
                started_ = true;
                for (size_t i = 0; i < workers_.size(); ++i)
                    workers_[i]->thread =
                        std::thread([this, i] { workerLoop(i); });
            }
        }
    } else {
        // Fail everything still queued with a typed Shutdown result.
        for (auto& w : workers_)
            discardQueued(w->queue.drainNow());
    }

    for (auto& w : workers_)
        w->queue.close();
    for (auto& w : workers_)
        if (w->thread.joinable())
            w->thread.join();
    {
        std::lock_guard<std::mutex> lock(watchdog_mu_);
        watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();

    // Final promise sweep: a submit() that passed the accepting_ check
    // just before shutdown flipped it can push into a queue after the
    // drainNow() above but before close(). On a started server a
    // worker drains it; on a PAUSED server nobody ever pops it, and a
    // destroyed promise would surface as std::future_error (broken
    // promise) instead of a typed result. Workers are joined, so
    // whatever is left in any queue can only be resolved here.
    for (auto& w : workers_)
        discardQueued(w->queue.drainNow());
}

void
Sod2Server::discardQueued(std::deque<Pending> items)
{
    if (items.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Pending& p : items) {
            queued_bytes_ -= p.bytes;
            releaseEpochLocked(p.epoch);
        }
        queued_count_ -= items.size();
        counts_.discarded += items.size();
    }
    for (Pending& p : items)
        failPending(p, ErrorCode::kShutdown,
                    "request discarded by server shutdown");
    idle_cv_.notify_all();
}

ServerStats
Sod2Server::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServerStats s = counts_;
    s.queueDepth = queued_count_;
    s.inflight = inflight_;
    return s;
}

ServerHealth
Sod2Server::health() const
{
    ServerHealth h;
    const int64_t now_us = nowMicros();
    {
        std::lock_guard<std::mutex> lock(mu_);
        h.started = started_;
        h.accepting = accepting_;
        h.queueDepth = queued_count_;
        h.inflight = inflight_;
    }
    h.swapInProgress = swap_in_progress_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < error_counts_.size(); ++i)
        h.errorCounts[i] =
            error_counts_[i].load(std::memory_order_relaxed);
    bool any_stuck = false;
    h.workers.reserve(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
        const Worker& w = *workers_[i];
        WorkerHealth wh;
        wh.index = i;
        wh.queueDepth = w.queue.depth();
        wh.busy = w.busy.load(std::memory_order_relaxed);
        wh.stuck = w.stuck.load(std::memory_order_relaxed);
        const int64_t progress =
            w.lastProgressUs.load(std::memory_order_relaxed);
        if (progress > 0 && now_us > progress)
            wh.secondsSinceProgress =
                static_cast<double>(now_us - progress) / 1e6;
        const int64_t deadline =
            w.busyDeadlineUs.load(std::memory_order_relaxed);
        if (wh.busy && deadline > 0 && now_us > deadline)
            wh.deadlineOverrunSeconds =
                static_cast<double>(now_us - deadline) / 1e6;
        wh.arenaBytes = w.arenaBytes.load(std::memory_order_relaxed);
        any_stuck = any_stuck || wh.stuck;
        h.workers.push_back(wh);
    }
    h.breakers = scoreboard_.snapshot();
    h.ready = h.started && h.accepting && !h.swapInProgress &&
              !any_stuck;
    return h;
}

void
Sod2Server::watchdogLoop()
{
    const auto interval =
        std::chrono::milliseconds(options_.watchdogIntervalMillis);
    const int64_t grace_us =
        static_cast<int64_t>(options_.watchdogGraceSeconds * 1e6);
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    for (;;) {
        watchdog_cv_.wait_for(lock, interval,
                              [&] { return watchdog_stop_; });
        if (watchdog_stop_)
            return;
        const int64_t now_us = nowMicros();
        for (size_t i = 0; i < workers_.size(); ++i) {
            Worker& w = *workers_[i];
            const bool stuck = workerLooksStuck(
                w.busy.load(std::memory_order_relaxed),
                w.busyDeadlineUs.load(std::memory_order_relaxed),
                now_us, grace_us);
            const bool was = w.stuck.exchange(
                stuck, std::memory_order_relaxed);
            if (stuck && !was) {
                {
                    std::lock_guard<std::mutex> count_lock(mu_);
                    ++counts_.watchdogStalls;
                }
                SOD2_LOG(kWarn)
                    << "server worker " << i
                    << " is stuck: busy past its run deadline by more "
                       "than the watchdog grace ("
                    << options_.watchdogGraceSeconds
                    << "s); readiness gated until it completes";
            }
        }
    }
}

}  // namespace serving
}  // namespace sod2
