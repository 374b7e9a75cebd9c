#include "support/threadpool.h"

#include <algorithm>

#include "support/env.h"
#include "support/logging.h"

namespace sod2 {

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
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
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
    for (;;) {
        std::shared_ptr<ParallelState> st;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stop_ || parallel_ != nullptr; });
            if (stop_)
                return;
            st = parallel_;
            if (st->next.load(std::memory_order_relaxed) >= st->chunks) {
                // Exhausted: retire it so idle workers stop waking.
                parallel_.reset();
                continue;
            }
        }
        runChunks(*st);
        std::lock_guard<std::mutex> lock(mu_);
        if (parallel_ == st)
            parallel_.reset();
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
    {
        std::lock_guard<std::mutex> lock(mu_);
        parallel_ = st;
    }
    cv_.notify_all();

    // The calling thread claims chunks like any worker.
    runChunks(*st);

    {
        std::unique_lock<std::mutex> lock(st->mu);
        st->cv.wait(lock, [&] {
            return st->done.load(std::memory_order_acquire) == st->chunks;
        });
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
