#ifndef SOD2_SUPPORT_THREADPOOL_H_
#define SOD2_SUPPORT_THREADPOOL_H_

/**
 * @file
 * A small fork/join thread pool whose workers stay warm between calls.
 *
 * Kernels use ThreadPool::global() to parallelize over the outermost
 * loop dimension; the pool size stands in for the "8 threads on mobile
 * CPU" configuration in the paper's evaluation setup.
 *
 * parallelFor dispatches through one shared per-call state with an
 * atomic chunk counter — workers claim chunk indices instead of popping
 * one heap-allocated closure per chunk, so a call costs a single
 * allocation regardless of chunk count, and small ranges
 * (total <= grain_size) bypass the pool entirely. The call publishes
 * that state by bumping a generation counter. A worker spins on the
 * counter for kSpinWindow after its last chunk before it parks on a
 * condition variable, and the caller spins on its chunks' completion
 * for the same window before it blocks, so back-to-back calls (one per
 * fused group) pay no wake-up (DESIGN.md §8).
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sod2 {

/** Fixed-size thread pool executing void() jobs. */
class ThreadPool
{
  public:
    /**
     * A pool of @p num_threads threads (<= 0: hardware concurrency): the
     * caller of parallelFor plus num_threads - 1 workers. With 1 there
     * are no workers and parallelFor runs inline.
     */
    explicit ThreadPool(int num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** The process-wide pool used by kernels. */
    static ThreadPool& global();

    /**
     * How long an idle worker spins for the next call, and a caller for
     * its workers' chunks, before parking on a condition variable. A
     * parked worker takes tens of µs to reach a CPU on the 4-core VM
     * the repo is measured on, longer than the median fused group runs
     * (5–12 µs traced), so a window of many groups keeps a run's
     * workers warm. After the last call each worker spends at most one
     * window of CPU before it parks: an idle 4-thread pool costs about
     * 0.7 ms of CPU once, not per second (DESIGN.md §8).
     */
    static constexpr std::chrono::microseconds kSpinWindow{200};

    /** Threads a parallelFor runs on: the workers plus the caller. */
    int numThreads() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * Runs fn(begin..end) partitioned into equal contiguous chunks
     * across the pool (plus the calling thread), blocking until done:
     * min(numThreads(), ceil(total / grain_size)) chunks are planned,
     * each of per = ceil(total / planned) iterations, and only
     * ceil(total / per) of them run, so fn never sees an empty or
     * inverted range. Degenerates to one inline call when the range is
     * small or the pool has one thread.
     *
     * @param total       iteration count; fn receives [chunk_begin, chunk_end)
     * @param fn          callable of signature void(int64_t begin, int64_t end)
     * @param grain_size  minimum iterations per chunk before splitting
     */
    void parallelFor(int64_t total,
                     const std::function<void(int64_t, int64_t)>& fn,
                     int64_t grain_size = 1);

  private:
    /** Shared state of one in-flight parallelFor: workers claim chunk
     *  indices from @ref next; the last finished chunk signals @ref cv,
     *  on which the caller blocks once its spin window has passed. */
    struct ParallelState
    {
        const std::function<void(int64_t, int64_t)>* fn = nullptr;
        int64_t total = 0;
        int64_t per = 0;     ///< iterations per chunk
        int64_t chunks = 0;
        std::atomic<int64_t> next{0};
        std::atomic<int64_t> done{0};
        std::mutex mu;
        std::condition_variable cv;
    };

    void workerLoop();
    /** Claims and runs chunks of @p st until the counter is exhausted. */
    static void runChunks(ParallelState& st);

    std::vector<std::thread> workers_;
    /** The active parallelFor, if any (shared so late workers never
     *  touch a state the caller has already abandoned). Guarded by mu_. */
    std::shared_ptr<ParallelState> parallel_;
    /** Bumped under mu_ each time parallel_ is published; spinning
     *  workers watch it without the lock. */
    std::atomic<uint64_t> generation_{0};
    /** Workers waiting on cv_; guarded by mu_. */
    int parked_ = 0;
    std::mutex mu_;
    std::condition_variable cv_;
    /** Set under mu_ by the destructor; spinning workers read it too. */
    std::atomic<bool> stop_{false};
};

/**
 * Convenience wrapper over ThreadPool::global().parallelFor.
 */
void parallelFor(int64_t total,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t grain_size = 1);

}  // namespace sod2

#endif  // SOD2_SUPPORT_THREADPOOL_H_
