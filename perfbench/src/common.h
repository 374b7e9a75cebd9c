#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/**
 * @file
 * Shared pieces of the benchmark: clock and order statistics, the
 * metric report each workload fills, and the in-memory span
 * recorder used by traced runs (Chrome trace JSON at exit).
 */

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/** Geometric mean of the positive entries; 0 when there are none. */
double geomean(const std::vector<double>& values);
double maxOf(const std::vector<double>& values);
/** @p seconds scaled to milliseconds. */
std::vector<double> toMs(const std::vector<double>& seconds);

/** Process peak resident set size, MiB (getrusage). */
double peakRssMib();

inline constexpr double kMiB = 1024.0 * 1024.0;

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in the order measured, plus the sample count behind each
 *  percentile (written to the run record). */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, size_t>> sampleCounts;
    std::vector<std::pair<std::string, std::string>> notes;
    int64_t attempted = 0;
    int64_t failed = 0;
    bool correct = true;

    void put(const std::string& name, double value, const std::string& unit);
    void samples(const std::string& name, size_t n);
    void note(const std::string& key, const std::string& value);
};

/**
 * In-memory span recorder: name, start, end, parent and request id per
 * span. Off unless enable() was called; begin/end are then a mutex and
 * a clock read. Written as Chrome trace-event JSON by writeChromeJson.
 */
class SpanRecorder
{
  public:
    static SpanRecorder& instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Opens a span now; returns its id (-1 when disabled). */
    int begin(const std::string& name, int64_t request = -1,
              int parent = -1);
    /** Closes span @p id now (no-op for -1). */
    void end(int id);
    /** Records a finished span with explicit times. */
    int add(const std::string& name, Clock::time_point start,
            Clock::time_point end, int64_t request = -1, int parent = -1);

    /** Writes {"traceEvents": [...]}; returns false on I/O failure. */
    bool writeChromeJson(const std::string& path) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start, end;
        int64_t request = -1;
        int parent = -1;
    };

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span on the global recorder. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string& name, int64_t request = -1,
                        int parent = -1)
        : id_(SpanRecorder::instance().begin(name, request, parent))
    {}
    ~ScopedSpan() { SpanRecorder::instance().end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int id() const { return id_; }

  private:
    int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
