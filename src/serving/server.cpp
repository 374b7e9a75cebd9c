#include "serving/server.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "support/env.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace sod2 {
namespace serving {

namespace {

constexpr int kDefaultWorkers = 4;
constexpr size_t kDefaultQueueDepth = 64;
constexpr int kDefaultBatchMax = 8;

int
resolveWorkers(int requested)
{
    if (requested > 0)
        return requested;
    int from_env = env::serverWorkers();
    return from_env > 0 ? from_env : kDefaultWorkers;
}

size_t
resolveQueueDepth(size_t requested)
{
    if (requested > 0)
        return requested;
    size_t from_env = env::serverQueueDepth();
    return from_env > 0 ? from_env : kDefaultQueueDepth;
}

BatchPolicy
resolveBatchPolicy(const ServerOptions& options)
{
    BatchPolicy policy;
    if (options.maxBatchSize > 0)
        policy.maxBatchSize = options.maxBatchSize;
    else
        policy.maxBatchSize =
            env::batchMax() > 0 ? env::batchMax() : kDefaultBatchMax;
    policy.maxWaitMicros = options.maxBatchWaitMicros >= 0
                               ? options.maxBatchWaitMicros
                               : env::batchWaitMicros();
    policy.padToBucket =
        options.padBatches >= 0 ? options.padBatches > 0 : env::batchPad();
    return policy;
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

}  // namespace

Sod2Server::Sod2Server(const Sod2Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(options),
      queue_depth_cap_(resolveQueueDepth(options.queueDepth)),
      policy_(options.affinity,
              static_cast<size_t>(resolveWorkers(options.workers))),
      batch_policy_(resolveBatchPolicy(options))
{
    SOD2_CHECK(engine != nullptr) << "Sod2Server needs a compiled engine";
    // Padding only pays off when the graph can actually stack; a
    // non-stackable engine silently keeps the exact-signature path
    // (batchCompatKey degenerates to the signature there anyway).
    if (!engine->batchInfo().stackable)
        batch_policy_.padToBucket = false;
    MetricsRegistry& metrics = MetricsRegistry::instance();
    metric_admitted_ = &metrics.counter("server.admitted");
    metric_shed_ = &metrics.counter("server.shed");
    metric_expired_ = &metrics.counter("server.expired");
    metric_completed_ = &metrics.counter("server.completed");
    metric_batches_ = &metrics.counter("server.batches");
    metric_pad_rows_ = &metrics.counter("server.pad_rows");
    metric_deadline_retries_ = &metrics.counter("server.deadline_retries");
    metric_batch_retries_ = &metrics.counter("server.batch_retries");
    metric_poison_isolated_ = &metrics.counter("server.poison_isolated");
    metric_transient_retries_ =
        &metrics.counter("server.transient_retries");
    metric_circuit_shed_ = &metrics.counter("server.circuit_shed");
    metric_breaker_trips_ = &metrics.counter("server.breaker_trips");
    metric_breaker_probes_ = &metrics.counter("server.breaker_probes");
    metric_watchdog_stalls_ =
        &metrics.counter("server.watchdog_stalls");
    metric_batch_size_ = &metrics.histogram(
        "server.batch_size", Histogram::defaultBatchSizeBounds());
    metric_queue_depth_ = &metrics.gauge("server.queue_depth");
    metric_inflight_ = &metrics.gauge("server.inflight");

    scoreboard_.configure(options_.breaker);
    retry_opts_ = options_.retry.resolved();
    watchdog_interval_ms_ = options_.watchdogIntervalMillis >= 0
                                ? options_.watchdogIntervalMillis
                                : env::watchdogMillis();

    int workers = resolveWorkers(options.workers);
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
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
    if (watchdog_interval_ms_ > 0 && !watchdog_.joinable())
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

std::vector<size_t>
Sod2Server::workerLoads() const
{
    // Queue depths plus a half-open view of inflight work would need
    // per-worker inflight flags; queue depth alone is the load signal
    // (an executing worker's queue drains one slower, which the next
    // pick observes).
    std::vector<size_t> loads;
    loads.reserve(workers_.size());
    for (const auto& w : workers_)
        loads.push_back(w->queue.depth());
    return loads;
}

size_t
Sod2Server::workerFor(uint64_t signature)
{
    return policy_.pick(signature,
                        policy_.mode() == AffinityMode::kLeastLoaded
                            ? workerLoads()
                            : std::vector<size_t>());
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
            metric_shed_->add();
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
        std::vector<int64_t> values;
        try {
            signature = eng->signatureFor(request.inputs, &values);
        } catch (const Error& e) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counts_.submitted;
                ++counts_.shed;
            }
            metric_shed_->add();
            failPending(pending, e.code(), e.what());
            return future;
        }
        pending.signature = signature;
        pending.compatKey = eng->batchCompatKey(values);
        pending.rows = eng->batchRowsOf(values);

        // Admission check 3: depth and bytes budgets, reserved
        // atomically so concurrent submits cannot jointly overflow.
        // The bytes budget is waived for a request arriving at an
        // empty queue ("admit when alone"): one oversized-but-legal
        // request must stay servable.
        std::lock_guard<std::mutex> lock(mu_);
        if (!accepting_) {
            ++counts_.submitted;
            ++counts_.shed;
            metric_shed_->add();
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
        if (queued_count_ >= queue_depth_cap_) {
            ++counts_.shed;
            metric_shed_->add();
            failPending(pending, ErrorCode::kQueueFull,
                        strFormat("admission queue full (%zu queued, "
                                  "depth cap %zu)",
                                  queued_count_, queue_depth_cap_));
            return future;
        }
        if (options_.queueBytesBudget > 0 && queued_count_ > 0 &&
            queued_bytes_ + pending.bytes > options_.queueBytesBudget) {
            ++counts_.shed;
            metric_shed_->add();
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
        // half-open probe, marked so it runs solo and reports back.
        switch (scoreboard_.admit(pending.signature)) {
          case SignatureScoreboard::Admission::kShed:
            ++counts_.shed;
            ++counts_.circuitShed;
            metric_shed_->add();
            metric_circuit_shed_->add();
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
            metric_breaker_probes_->add();
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
    metric_admitted_->add();
    metric_queue_depth_->add(1);

    // Pad mode routes by batch-compat key (batch extent masked) so
    // same-class requests of different batch sizes share one worker
    // queue and can actually meet in a padded batch; exact mode keeps
    // signature routing, which maximizes warm last-plan hits.
    size_t target = workerFor(batch_policy_.padToBucket
                                  ? pending.compatKey
                                  : pending.signature);
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
        metric_queue_depth_->add(-1);
        metric_shed_->add();
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
        return;  // directly-enqueued Pending (tests) — untracked
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
    // Quarantine gate for coalescing: suspect signatures (uncleared
    // breaker failures) and half-open probes must run solo, so they
    // can neither kill innocent batchmates nor hide behind them.
    std::function<bool(const Pending&)> quarantine;
    if (scoreboard_.enabled())
        quarantine = [this](const Pending& p) {
            return !p.breakerProbe && !scoreboard_.suspect(p.signature);
        };
    Pending first;
    while (worker.queue.pop(&first)) {
        worker.lastProgressUs.store(nowMicros(),
                                    std::memory_order_relaxed);
        // Maintenance item (trimArenas): run the callback on this
        // worker's pinned context — the only thread allowed to touch
        // it — then resolve and go back to popping. Maintenance never
        // entered the admission counters, so none are released here.
        if (first.maintenance) {
            first.maintenance(worker.ctx);
            worker.arenaBytes.store(worker.ctx.arena().capacity(),
                                    std::memory_order_relaxed);
            first.promise.set_value(RunResult());
            continue;
        }
        // Continuous batching: grow the popped request into a batch of
        // compatible queued requests (bounded straggler wait inside).
        // A solo-quarantined leader skips coalescing entirely.
        const bool leader_solo =
            first.breakerProbe ||
            (scoreboard_.enabled() &&
             scoreboard_.suspect(first.signature));
        std::vector<Pending> batch;
        batch.push_back(std::move(first));
        if (!leader_solo)
            collectBatch(worker.queue, batch_policy_, &batch,
                         quarantine);

        // The batch executes on the engine its members were admitted
        // against — all equal, since collectBatch never batches across
        // admission epochs — so a blue/green swap never re-routes an
        // admitted request. A directly-enqueued Pending without one
        // (engine == nullptr) runs on the server's current engine.
        const Sod2Engine* engine = batch.front().engine;
        if (engine == nullptr) {
            std::lock_guard<std::mutex> lock(mu_);
            engine = engine_;
        }

        // Account the whole dequeue at once. Bytes are released here
        // for EVERY member — including those shed moments later on
        // in-queue deadline expiry — so sustained expiry can never
        // leak admission budget. Each member counts as inflight until
        // its promise resolves (including the expired-shed path) so
        // drain() cannot observe queued==0 && inflight==0 with a
        // future still pending.
        size_t batch_bytes = 0;
        for (const Pending& p : batch)
            batch_bytes += p.bytes;
        {
            std::lock_guard<std::mutex> lock(mu_);
            queued_count_ -= batch.size();
            queued_bytes_ -= batch_bytes;
            inflight_ += batch.size();
        }
        metric_queue_depth_->add(-static_cast<int64_t>(batch.size()));
        metric_inflight_->add(static_cast<int64_t>(batch.size()));

        // In-queue expiry: shed typed without executing; survivors
        // keep their batch slot (queue order).
        auto now = std::chrono::steady_clock::now();
        std::vector<Pending> live;
        live.reserve(batch.size());
        size_t expired = 0;
        for (Pending& p : batch) {
            bool dead =
                p.deadline !=
                    std::chrono::steady_clock::time_point::max() &&
                now >= p.deadline;
            if (!dead) {
                live.push_back(std::move(p));
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counts_.expired;
                releaseEpochLocked(p.epoch);
            }
            metric_expired_->add();
            metric_shed_->add();
            failPending(p, ErrorCode::kDeadlineExceeded,
                        "deadline expired while queued; request shed "
                        "without executing");
            ++expired;
        }
        if (expired > 0) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                inflight_ -= expired;
            }
            metric_inflight_->add(-static_cast<int64_t>(expired));
            idle_cv_.notify_all();
        }
        if (live.empty())
            continue;

        // Merged guardrails for the shared run. The batch members
        // agree on shape (that is what made them compatible) but may
        // disagree on per-request options; the merge is conservative:
        // the earliest deadline governs, the arena budget is the
        // loosest member's (unlimited wins), and the interpreter
        // fallback fires only when every member opted in.
        RunOptions opts = live.front().runOptions;
        bool fallback_all = true;
        bool arena_unlimited = false;
        size_t arena_max = 0;
        double run_deadline = 0.0;
        for (const Pending& p : live) {
            fallback_all = fallback_all && p.runOptions.fallbackOnError;
            if (p.runOptions.arenaBudgetBytes == 0)
                arena_unlimited = true;
            else
                arena_max =
                    std::max(arena_max, p.runOptions.arenaBudgetBytes);
            double d = p.runOptions.deadlineSeconds;
            if (p.deadline !=
                std::chrono::steady_clock::time_point::max()) {
                // Hand the engine the *remaining* time so mid-run
                // expiry surfaces its cooperative group-boundary
                // error unchanged.
                double remaining = secondsUntil(p.deadline, now);
                d = d > 0.0 ? std::min(d, remaining) : remaining;
            }
            if (d > 0.0)
                run_deadline =
                    run_deadline > 0.0 ? std::min(run_deadline, d) : d;
        }
        opts.fallbackOnError = fallback_all;
        opts.arenaBudgetBytes = arena_unlimited ? 0 : arena_max;
        opts.deadlineSeconds = run_deadline;

        BatchOptions bopts;
        if (batch_policy_.padToBucket &&
            engine->batchInfo().stackable) {
            int64_t rows = 0;
            for (const Pending& p : live)
                rows += p.rows;
            bopts.padRowsTo = BatchPolicy::bucketRows(rows);
        }

        std::vector<const std::vector<Tensor>*> item_inputs;
        item_inputs.reserve(live.size());
        for (const Pending& p : live)
            item_inputs.push_back(&p.inputs);

        // Watchdog instrumentation: mark the worker busy with the
        // merged run deadline so a hung dispatch is detectable.
        worker.busyDeadlineUs.store(
            run_deadline > 0.0
                ? nowMicros() + static_cast<int64_t>(run_deadline * 1e6)
                : 0,
            std::memory_order_relaxed);
        worker.busy.store(true, std::memory_order_relaxed);

        BatchRunStats bstats;
        std::vector<RunResult> results;
        try {
            results = engine->runBatch(worker.ctx, item_inputs, opts,
                                       bopts, &bstats);
        } catch (const std::exception& e) {
            // runBatch is non-throwing by contract; belt-and-braces so
            // a worker thread can never die on an escaped exception.
            results.assign(live.size(), RunResult());
            for (RunResult& r : results) {
                r.code = ErrorCode::kInternal;
                r.message = e.what();
            }
        }

        // Batch-failure bisection (DESIGN.md §15). Both batch paths
        // execute under the MERGED guardrails, so a whole-batch
        // failure reaches members whose own guardrails never fired:
        // the stacked path replicates its one fate outright
        // (RunResult::sharedFate), the merged earliest deadline
        // expires for batchmates with time to spare, and the
        // conservative fallback merge can deny a member the
        // interpreter fallback it asked for. Each such member re-runs
        // individually under its OWN guardrails — innocent batchmates
        // succeed bit-exactly, and only the member(s) whose failure
        // survives the solo re-run keep a typed error (the poison).
        // A solo "batch" already ran under its own options — no
        // bisection.
        if (live.size() > 1) {
            for (size_t i = 0; i < live.size() && i < results.size();
                 ++i) {
                RunResult& r = results[i];
                if (r.ok())
                    continue;
                const bool merged_deadline =
                    r.code == ErrorCode::kDeadlineExceeded;
                // Per-item-path failures that were NOT the merged
                // deadline and NOT a denied fallback are individually
                // earned under guardrails at least as loose as the
                // member's own — a solo re-run cannot change them.
                const bool fallback_denied =
                    live[i].runOptions.fallbackOnError &&
                    !opts.fallbackOnError &&
                    (r.code == ErrorCode::kArenaExhausted ||
                     r.code == ErrorCode::kKernelFailure ||
                     r.code == ErrorCode::kBindFailure ||
                     r.code == ErrorCode::kInternal);
                if (!r.sharedFate && !merged_deadline &&
                    !fallback_denied)
                    continue;
                // Opt-out keeps the pre-bisection behavior: only the
                // merged-deadline retry.
                if (!options_.isolateBatchFailures && !merged_deadline)
                    continue;
                RunOptions own = live[i].runOptions;
                int64_t own_deadline_us = 0;
                if (live[i].deadline !=
                    std::chrono::steady_clock::time_point::max()) {
                    auto now_retry = std::chrono::steady_clock::now();
                    double remaining =
                        secondsUntil(live[i].deadline, now_retry);
                    if (remaining <= 0.0) {
                        // Its own budget is truly gone: an expired
                        // member sheds as DeadlineExceeded, never as
                        // the batch's replicated error it may be
                        // innocent of.
                        if (merged_deadline)
                            continue;
                        r.code = ErrorCode::kDeadlineExceeded;
                        r.message =
                            "deadline expired before the batch "
                            "failure could be bisected";
                        r.sharedFate = false;
                        r.outputs.clear();
                        continue;
                    }
                    own.deadlineSeconds =
                        own.deadlineSeconds > 0.0
                            ? std::min(own.deadlineSeconds, remaining)
                            : remaining;
                    own_deadline_us =
                        nowMicros() +
                        static_cast<int64_t>(remaining * 1e6);
                }
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++counts_.batchRetries;
                    if (merged_deadline)
                        ++counts_.deadlineRetries;
                }
                metric_batch_retries_->add();
                if (merged_deadline)
                    metric_deadline_retries_->add();
                worker.busyDeadlineUs.store(own_deadline_us,
                                            std::memory_order_relaxed);
                results[i] = engine->tryRun(worker.ctx, live[i].inputs,
                                            nullptr, own);
                results[i].sharedFate = false;
                // tryRun outputs alias the worker context's arena;
                // promises need owning copies (runBatch clones its).
                for (Tensor& t : results[i].outputs)
                    t = t.clone();
                if (!results[i].ok() &&
                    breakerCharged(results[i].code)) {
                    {
                        std::lock_guard<std::mutex> lock(mu_);
                        ++counts_.poisonIsolated;
                    }
                    metric_poison_isolated_->add();
                }
            }
        }

        // Bounded transient retry (DESIGN.md §15): an individually
        // earned transient failure (arena pressure that may clear
        // after a trim, a one-off plan/cache-publish fault) gets up to
        // maxAttempts solo re-runs under decorrelated-jitter backoff,
        // deadline-aware so a retry never spends time the request no
        // longer has. Replicated (sharedFate) errors are batch-level
        // and never retried here.
        if (retry_opts_.enabled()) {
            for (size_t i = 0; i < live.size() && i < results.size();
                 ++i) {
                if (results[i].ok() || results[i].sharedFate ||
                    !transientRetryable(results[i].code))
                    continue;
                RetryBackoff backoff(retry_opts_, live[i].seq + 1);
                for (int attempt = 0;
                     attempt < retry_opts_.maxAttempts; ++attempt) {
                    const long long delay = backoff.nextDelayMicros();
                    RunOptions own = live[i].runOptions;
                    int64_t own_deadline_us = 0;
                    if (live[i].deadline !=
                        std::chrono::steady_clock::time_point::max()) {
                        double remaining = secondsUntil(
                            live[i].deadline,
                            std::chrono::steady_clock::now());
                        // The backoff sleep must fit in the remaining
                        // budget with time left to actually run.
                        if (remaining * 1e6 <=
                            static_cast<double>(delay))
                            break;
                        double after_sleep =
                            remaining -
                            static_cast<double>(delay) / 1e6;
                        own.deadlineSeconds =
                            own.deadlineSeconds > 0.0
                                ? std::min(own.deadlineSeconds,
                                           after_sleep)
                                : after_sleep;
                        own_deadline_us =
                            nowMicros() +
                            static_cast<int64_t>(remaining * 1e6);
                    }
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(delay));
                    {
                        std::lock_guard<std::mutex> lock(mu_);
                        ++counts_.transientRetries;
                    }
                    metric_transient_retries_->add();
                    worker.busyDeadlineUs.store(
                        own_deadline_us, std::memory_order_relaxed);
                    results[i] = engine->tryRun(
                        worker.ctx, live[i].inputs, nullptr, own);
                    results[i].sharedFate = false;
                    for (Tensor& t : results[i].outputs)
                        t = t.clone();
                    if (results[i].ok() ||
                        !transientRetryable(results[i].code))
                        break;
                }
            }
        }

        // Report final member fates to the breaker scoreboard. Probes
        // MUST report (success re-closes, charged failure re-opens);
        // regular members charge consecutive-failure streaks that trip
        // the breaker at the threshold.
        if (scoreboard_.enabled()) {
            for (size_t i = 0; i < live.size() && i < results.size();
                 ++i) {
                const uint64_t sig = live[i].signature;
                const bool probe = live[i].breakerProbe;
                if (results[i].ok()) {
                    scoreboard_.onSuccess(sig, probe);
                } else if (scoreboard_.onFailure(sig, results[i].code,
                                                 probe)) {
                    {
                        std::lock_guard<std::mutex> lock(mu_);
                        ++counts_.breakerTrips;
                    }
                    metric_breaker_trips_->add();
                }
            }
        }

        metric_batches_->add();
        metric_batch_size_->observe(static_cast<double>(live.size()));
        if (bstats.padRows > 0)
            metric_pad_rows_->add(static_cast<uint64_t>(bstats.padRows));
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counts_.batches;
            if (bstats.padRows > 0)
                counts_.padRows +=
                    static_cast<uint64_t>(bstats.padRows);
        }

        // The arena mirror must be current BEFORE any future resolves:
        // a caller that run()s synchronously and then reads
        // residentArenaBytes() (the fleet's governor probe) must see
        // the capacity this batch left behind.
        worker.arenaBytes.store(worker.ctx.arena().capacity(),
                                std::memory_order_relaxed);

        // Order matters for drain()'s guarantee: counters final, then
        // the promises resolve, then inflight drops — so a waiter
        // woken by inflight==0 sees every future ready and every count
        // final. runBatch's outputs are owning copies already.
        for (size_t i = 0; i < live.size(); ++i) {
            RunResult result;
            if (i < results.size()) {
                result = std::move(results[i]);
            } else {
                result.code = ErrorCode::kInternal;
                result.message = "batch result missing";
                // Never reached the scoreboard loop: a probe must
                // still release its half-open slot.
                if (live[i].breakerProbe)
                    scoreboard_.onProbeDropped(live[i].signature);
            }
            bool ok = result.ok();
            error_counts_[codeIndex(result.code)].fetch_add(
                1, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (ok)
                    ++counts_.completed;
                else
                    ++counts_.failed;
                releaseEpochLocked(live[i].epoch);
            }
            if (ok)
                metric_completed_->add();
            // Executed-request hook (fleet EWMA feed): outside mu_,
            // before the future resolves, so an observer that queries
            // this server back cannot deadlock on the stats lock.
            if (options_.completionObserver)
                options_.completionObserver(live[i].signature, result);
            live[i].promise.set_value(std::move(result));
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            inflight_ -= live.size();
        }
        metric_inflight_->add(-static_cast<int64_t>(live.size()));
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
        policy_.pick(next->signatureFor(*inputs), std::vector<size_t>());
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
                if (p.epoch > old_epoch || p.engine == nullptr) {
                    if (w->queue.push(std::move(p)))
                        continue;
                    // Queue closed by a concurrent shutdown: fall
                    // through to the typed shed below.
                }
                if (p.maintenance) {
                    // Maintenance never entered admission accounting;
                    // just resolve it typed (trimArenas unblocks).
                    failPending(p, ErrorCode::kShutdown,
                                "maintenance superseded by shutdown");
                    continue;
                }
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    --queued_count_;
                    queued_bytes_ -= p.bytes;
                    ++counts_.discarded;
                    releaseEpochLocked(p.epoch);
                }
                metric_queue_depth_->add(-1);
                metric_shed_->add();
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
        for (auto& w : workers_) {
            std::deque<Pending> dropped = w->queue.drainNow();
            if (dropped.empty())
                continue;
            // Maintenance items (trimArenas) never entered admission
            // accounting — releasing budget for them would underflow
            // the counters; they only need their promise resolved.
            size_t requests = 0;
            {
                std::lock_guard<std::mutex> lock(mu_);
                for (const Pending& p : dropped) {
                    if (p.maintenance)
                        continue;
                    ++requests;
                    queued_bytes_ -= p.bytes;
                    releaseEpochLocked(p.epoch);
                }
                queued_count_ -= requests;
                counts_.discarded += requests;
            }
            metric_queue_depth_->add(-static_cast<int64_t>(requests));
            for (Pending& p : dropped) {
                if (!p.maintenance)
                    metric_shed_->add();
                failPending(p, ErrorCode::kShutdown,
                            "request discarded by server shutdown");
            }
            idle_cv_.notify_all();
        }
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
    for (auto& w : workers_) {
        std::deque<Pending> leftovers = w->queue.drainNow();
        if (leftovers.empty())
            continue;
        // Same maintenance partition as the non-draining sweep above.
        size_t requests = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (const Pending& p : leftovers) {
                if (p.maintenance)
                    continue;
                ++requests;
                queued_bytes_ -= p.bytes;
                releaseEpochLocked(p.epoch);
            }
            queued_count_ -= requests;
            counts_.discarded += requests;
        }
        metric_queue_depth_->add(-static_cast<int64_t>(requests));
        for (Pending& p : leftovers) {
            if (!p.maintenance)
                metric_shed_->add();
            failPending(p, ErrorCode::kShutdown,
                        "request discarded by server shutdown");
        }
        idle_cv_.notify_all();
    }
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

size_t
Sod2Server::residentArenaBytes() const
{
    size_t total = 0;
    for (const auto& w : workers_)
        total += w->arenaBytes.load(std::memory_order_relaxed);
    return total;
}

size_t
Sod2Server::trimArenas(
    const std::function<void(const RunContext&)>& after)
{
    // Snapshot the lifecycle under mu_; trimming takes the inline path
    // whenever no worker thread could be running (paused or stopped),
    // because a parked queue has no consumer to execute a maintenance
    // item and a stopped one is closed to pushes.
    bool inline_trim = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        inline_trim = !started_ || stopped_;
    }
    if (inline_trim) {
        for (auto& w : workers_) {
            w->ctx.trimArena();
            w->arenaBytes.store(0, std::memory_order_relaxed);
            if (after)
                after(w->ctx);
        }
        return workers_.size();
    }

    // Running server: one maximum-priority maintenance item per
    // worker, executed on the worker's own thread so the trim can
    // never race an in-flight run on the pinned context. The epoch
    // sentinel UINT64_MAX is outside every admission epoch, so the
    // epoch ledger and hard-cutover re-push logic both pass it
    // through untouched.
    std::vector<std::future<RunResult>> done;
    done.reserve(workers_.size());
    size_t trimmed = 0;
    for (auto& w : workers_) {
        Pending p;
        p.maintenance = [after](RunContext& ctx) {
            ctx.trimArena();
            if (after)
                after(ctx);
        };
        p.priority = INT_MAX;
        p.epoch = UINT64_MAX;
        std::future<RunResult> f = p.promise.get_future();
        if (!w->queue.push(std::move(p)))
            continue;  // raced with shutdown; that worker keeps its arena
        done.push_back(std::move(f));
        ++trimmed;
    }
    for (auto& f : done)
        f.wait();
    return trimmed;
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
        std::chrono::milliseconds(watchdog_interval_ms_);
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
                metric_watchdog_stalls_->add();
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
