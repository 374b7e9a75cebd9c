#include "support/threadpool.h"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "support/env.h"
#include "support/logging.h"

namespace sod2 {

namespace {

/** Pauses between two reads of the clock while spinning: a few µs. */
constexpr int kPausesPerClockCheck = 64;
/** Clock checks between two yields of the CPU: tens of µs. */
constexpr int kClockChecksPerYield = 8;

/**
 * Spins until @p ready() holds or ThreadPool::kSpinWindow has passed.
 *
 * The spin yields the CPU every few tens of µs. Where cpusets do not
 * load-balance (as on the 4-core VM the repo is measured on), the
 * kernel may leave every pool thread on one CPU, and a pure spin there
 * starves the thread running the chunks. Measured with perfbench's
 * serve_codebert pinned to one CPU: p50 3.2 ms with a blocking pool,
 * 8.8 ms spinning without yields, 2.9 ms with them (DESIGN.md §8).
 * @return whether ready() held.
 */
template <class Ready>
bool
spinUntil(Ready ready)
{
    auto deadline =
        std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
    for (int checks = 1;; ++checks) {
        for (int i = 0; i < kPausesPerClockCheck; ++i) {
            if (ready())
                return true;
#if defined(__x86_64__)
            _mm_pause();
#endif
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return ready();
        if (checks % kClockChecksPerYield == 0)
            std::this_thread::yield();
    }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads <= 0) {
        num_threads = static_cast<int>(std::thread::hardware_concurrency());
        if (num_threads <= 0)
            num_threads = 4;
    }
    // The caller participates in parallelFor, so spawn one fewer worker;
    // a one-thread pool has none and runs every call inline.
    int workers = num_threads - 1;
    workers_.reserve(workers);
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        // Under mu_, so a worker about to park sees it in its predicate.
        std::lock_guard<std::mutex> lock(mu_);
        stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    for (auto& t : workers_)
        t.join();
}

ThreadPool&
ThreadPool::global()
{
    // SOD2_NUM_THREADS pins the pool size (the paper's "8 threads on
    // mobile CPU" setup knob); 0 defaults to hardware concurrency.
    // Cached once per process (support/env semantics), same as the
    // pool itself.
    static ThreadPool pool(env::numThreads());
    return pool;
}

void
ThreadPool::runChunks(ParallelState& st)
{
    for (;;) {
        int64_t c = st.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= st.chunks)
            return;
        int64_t begin = c * st.per;
        int64_t end = std::min(st.total, begin + st.per);
        (*st.fn)(begin, end);
        if (st.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            st.chunks) {
            // Last chunk: wake the caller blocked in parallelFor.
            std::lock_guard<std::mutex> lock(st.mu);
            st.cv.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;  // generation of the last call this worker took
    auto called = [&] {
        return stop_.load(std::memory_order_acquire) ||
               generation_.load(std::memory_order_acquire) != seen;
    };
    for (;;) {
        // Spin for the next call, then park. The predicate is re-read
        // under mu_, where parallelFor bumps the generation and counts
        // parked workers, so a call between the spin and the wait is
        // either seen here or notified.
        if (!spinUntil(called)) {
            std::unique_lock<std::mutex> lock(mu_);
            ++parked_;
            cv_.wait(lock, called);
            --parked_;
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        std::shared_ptr<ParallelState> st;
        {
            std::lock_guard<std::mutex> lock(mu_);
            seen = generation_.load(std::memory_order_relaxed);
            st = parallel_;
        }
        // Null or exhausted when the caller finished without us.
        if (st)
            runChunks(*st);
    }
}

void
ThreadPool::parallelFor(int64_t total,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int64_t grain_size)
{
    if (total <= 0)
        return;
    // Small ranges, and every range of a one-thread pool, never touch
    // the pool (no state allocation, no wake).
    int64_t grain = std::max<int64_t>(1, grain_size);
    if (total <= grain || workers_.empty()) {
        fn(0, total);
        return;
    }
    // Cutting `total` into the planned number of chunks of ceil size
    // can leave the last ones empty or inverted (5 over 4 gives per 2
    // and a fourth chunk [6, 5)), so only the chunks that cover it run.
    int64_t chunks =
        std::min<int64_t>(numThreads(), (total + grain - 1) / grain);
    int64_t per = (total + chunks - 1) / chunks;
    chunks = (total + per - 1) / per;

    // One shared state per call; workers claim chunk indices from the
    // atomic counter instead of receiving per-chunk closures.
    auto st = std::make_shared<ParallelState>();
    st->fn = &fn;
    st->total = total;
    st->chunks = chunks;
    st->per = per;
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        parallel_ = st;
        generation_.fetch_add(1, std::memory_order_release);
        wake = parked_ > 0;
    }
    if (wake)
        cv_.notify_all();

    // The calling thread claims chunks like any worker.
    runChunks(*st);

    auto finished = [&] {
        return st->done.load(std::memory_order_acquire) == st->chunks;
    };
    if (!spinUntil(finished)) {
        std::unique_lock<std::mutex> lock(st->mu);
        st->cv.wait(lock, finished);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (parallel_ == st)
        parallel_.reset();
}

void
parallelFor(int64_t total, const std::function<void(int64_t, int64_t)>& fn,
            int64_t grain_size)
{
    ThreadPool::global().parallelFor(total, fn, grain_size);
}

}  // namespace sod2
