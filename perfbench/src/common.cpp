#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double>& values)
{
    double log_sum = 0.0;
    size_t n = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double
maxOf(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

std::vector<double>
toMs(const std::vector<double>& seconds)
{
    std::vector<double> out;
    out.reserve(seconds.size());
    for (double s : seconds)
        out.push_back(s * 1e3);
    return out;
}

double
peakRssMib()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
Report::put(const std::string& name, double value, const std::string& unit)
{
    for (Metric& m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

void
Report::samples(const std::string& name, size_t n)
{
    sampleCounts.emplace_back(name, n);
}

void
Report::note(const std::string& key, const std::string& value)
{
    notes.emplace_back(key, value);
}

SpanRecorder&
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

int
SpanRecorder::begin(const std::string& name, int64_t request, int parent)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Clock::time_point now = Clock::now();
    spans_.push_back({name, now, now, request, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
}

int
SpanRecorder::add(const std::string& name, Clock::time_point start,
                  Clock::time_point end, int64_t request, int parent)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, request, parent});
    return static_cast<int>(spans_.size() - 1);
}

bool
SpanRecorder::writeChromeJson(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        double ts = std::chrono::duration<double, std::micro>(s.start -
                                                              origin_)
                        .count();
        double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        // Spans of one request share a lane, so nesting renders; 32
        // lanes keep concurrent requests apart.
        long long tid = s.request >= 0 ? s.request % 32 + 1 : 0;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"request\": %lld}}",
                     i == 0 ? "" : ",\n", s.name.c_str(), tid, ts, dur, i,
                     s.parent, static_cast<long long>(s.request));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench
