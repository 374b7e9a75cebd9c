#ifndef SOD2_SUPPORT_METRICS_H_
#define SOD2_SUPPORT_METRICS_H_

/**
 * @file
 * Process-wide metrics: named counters and fixed-bucket histograms that
 * aggregate across threads.
 *
 * Where the tracer (support/trace.h) answers "where did *this* run
 * spend its time", metrics answer "what does the distribution look
 * like across the whole serving process". Counter updates are
 * lock-free relaxed atomics; Histogram::observe is too (the sum uses a
 * CAS loop so no C++20 atomic<double> support is required) except
 * while a reset() or snapshot() holds the histogram still, so N
 * request threads can observe into one histogram without serializing
 * on each other. Registry lookups
 * take a mutex — resolve metric pointers once (construction time) and
 * reuse them on hot paths; pointers stay valid for the process
 * lifetime.
 *
 * Latency histograms default to log-spaced 1-2-5 bucket bounds from
 * 1 us to 10 s, giving p50/p95/p99 with bounded error at any scale the
 * model zoo produces.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sod2 {

/** Monotonic event counter (thread-safe, relaxed). */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Instantaneous level (queue depth, inflight requests): unlike a
 * Counter it moves both ways, so it is signed and supports both
 * absolute set() and delta add(). Updates are lock-free (relaxed
 * atomics) and the registry snapshot reads it the same way it reads
 * counters, so one toJson() call sees gauges and counters from the
 * same moment-in-time family of relaxed loads.
 */
class Gauge
{
  public:
    void
    set(int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        set(0);
    }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations v with
 * bounds[i-1] < v <= bounds[i]; one overflow bucket catches the rest.
 * percentile() interpolates linearly inside the selected bucket
 * (bounded by the bucket resolution).
 *
 * observe() updates a bucket, the count and the sum as three separate
 * atomics. reset() and snapshot() therefore quiesce writers first: they
 * make an epoch odd, which new observe() calls wait out, and drain the
 * count of observe() calls already in flight. So every observation
 * lands wholly before or wholly after a reset, and a snapshot sees
 * whole observations only.
 */
class Histogram
{
  public:
    /**
     * One consistent view of the distribution, captured with writers
     * quiesced: buckets, count and sum all cover the same set of whole
     * observations. count is derived from the captured buckets, and
     * every percentile is computed from the same bucket vector —
     * reading count(), percentile(50), percentile(99) directly off the
     * live histogram races concurrent observe() calls and can report
     * bucket-sum != count or non-monotonic percentiles.
     */
    struct Snapshot
    {
        /** bounds().size() + 1 entries; the last is the overflow. */
        std::vector<uint64_t> buckets;
        /** Sum of buckets (derived, consistent by construction). */
        uint64_t count = 0;
        double sum = 0.0;
        /** Borrowed from the source histogram (process lifetime). */
        const std::vector<double>* bounds = nullptr;

        /** Same contract as Histogram::percentile, over this view. */
        double percentile(double p) const;
        double mean() const;
    };

    /** @p bounds must be non-empty and strictly increasing. */
    explicit Histogram(std::vector<double> bounds);

    /** Captures one consistent Snapshot of the current distribution. */
    Snapshot snapshot() const;

    /** Log-spaced 1-2-5 decades, 1 us .. 10 s (values in us). */
    static std::vector<double> defaultLatencyBoundsUs();

    /** Power-of-two buckets 1..256 — matches the serving batcher's
     *  pad-to-bucket row boundaries ("server.batch_size"). */
    static std::vector<double> defaultBatchSizeBounds();

    void observe(double value);

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Sum of observed values (CAS-accumulated double). */
    double sum() const;

    /** Mean of observed values (0 when empty). */
    double mean() const;

    /**
     * The @p p-th percentile (0..100) estimated from the buckets:
     * linear interpolation between the selected bucket's bounds.
     * Observations in the overflow bucket report the last finite
     * bound. Returns 0 when empty. Computed via snapshot(), so one
     * call is internally consistent; correlate several percentiles by
     * taking one snapshot() and querying it.
     */
    double percentile(double p) const;

    const std::vector<double>& bounds() const { return bounds_; }
    /** Count in bucket @p i (i == bounds().size() is the overflow). */
    uint64_t bucketCount(size_t i) const;

    /**
     * Zeroes the distribution. Concurrent observe() calls land wholly
     * before or wholly after it (bucket, count and sum together), and
     * concurrent snapshot() calls see it entirely or not at all.
     */
    void reset();

  private:
    /** Runs @p fn with observe() held off: takes the quiesce lock, makes
     *  the epoch odd, and waits until no observe() is in flight. */
    template <typename Fn>
    void quiesced(Fn&& fn) const;

    std::vector<double> bounds_;
    /** bounds_.size() + 1 buckets; the last one is the overflow. */
    std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
    std::atomic<uint64_t> count_{0};
    /** Double bits in an atomic<uint64_t> (portable CAS accumulate). */
    std::atomic<uint64_t> sum_bits_{0};
    /** Serializes reset() and snapshot() against each other. */
    mutable std::mutex quiesce_mu_;
    /** Odd while reset() or snapshot() holds writers off. */
    mutable std::atomic<uint64_t> epoch_{0};
    /** observe() calls between their epoch check and their last
     *  update. */
    mutable std::atomic<uint64_t> inflight_{0};
};

/**
 * Name -> metric map. Metrics are created on first request and live for
 * the process; requesting an existing name returns the same object, so
 * every thread aggregates into one instance.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry& instance();

    /** The counter named @p name (created zeroed on first request). */
    Counter& counter(const std::string& name);

    /** The gauge named @p name (created zeroed on first request). */
    Gauge& gauge(const std::string& name);

    /**
     * The histogram named @p name; @p bounds apply only on first
     * creation (empty = defaultLatencyBoundsUs()). Later callers get
     * the existing histogram whatever bounds they pass.
     */
    Histogram& histogram(const std::string& name,
                         std::vector<double> bounds = {});

    /** Snapshot of every metric as one JSON object (stable key order). */
    std::string toJson() const;

    /** Zeroes every registered metric (tests; objects stay valid). */
    void resetAll();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sod2

#endif  // SOD2_SUPPORT_METRICS_H_
