#include "support/metrics.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "support/logging.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace sod2 {
namespace {

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    SOD2_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
    for (size_t i = 1; i < bounds_.size(); ++i)
        SOD2_CHECK_LT(bounds_[i - 1], bounds_[i])
            << "histogram bounds must be strictly increasing";
    buckets_ = std::make_unique<std::atomic<uint64_t>[]>(
        bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

std::vector<double>
Histogram::defaultLatencyBoundsUs()
{
    std::vector<double> bounds;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0)
        for (double step : {1.0, 2.0, 5.0})
            bounds.push_back(decade * step);
    bounds.push_back(1e7);  // 10 s
    return bounds;
}

void
Histogram::observe(double value)
{
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    size_t bucket = static_cast<size_t>(it - bounds_.begin());
    // Announce, then check the epoch (sequentially consistent, mirrored
    // in quiesced()): either this call sees the odd epoch and backs off,
    // or the quiescer sees it in flight and waits for it.
    for (;;) {
        inflight_.fetch_add(1);
        if ((epoch_.load() & 1) == 0)
            break;
        inflight_.fetch_sub(1);
        while (epoch_.load() & 1)
            std::this_thread::yield();
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
    while (!sum_bits_.compare_exchange_weak(
        old_bits, doubleBits(bitsDouble(old_bits) + value),
        std::memory_order_relaxed)) {
    }
    // The quiescer's read of inflight_ == 0 orders these updates before
    // whatever it reads or zeroes.
    inflight_.fetch_sub(1);
}

template <typename Fn>
void
Histogram::quiesced(Fn&& fn) const
{
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    epoch_.fetch_add(1);
    while (inflight_.load() != 0)
        std::this_thread::yield();
    fn();
    epoch_.fetch_add(1);
}

double
Histogram::sum() const
{
    return bitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

double
Histogram::mean() const
{
    uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    s.bounds = &bounds_;
    s.buckets.resize(bounds_.size() + 1);
    quiesced([&] {
        for (size_t i = 0; i <= bounds_.size(); ++i) {
            s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
            s.count += s.buckets[i];
        }
        s.sum = sum();
    });
    return s;
}

double
Histogram::Snapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    const std::vector<double>& b = *bounds;
    p = std::min(std::max(p, 0.0), 100.0);
    // Rank of the target observation, 1-based, ceil semantics.
    uint64_t rank = static_cast<uint64_t>(p / 100.0 *
                                          static_cast<double>(count));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        uint64_t in_bucket = buckets[i];
        if (seen + in_bucket < rank) {
            seen += in_bucket;
            continue;
        }
        if (i == b.size())
            return b.back();  // overflow: clamp
        double lo = i == 0 ? 0.0 : b[i - 1];
        double hi = b[i];
        double frac = in_bucket == 0
                          ? 1.0
                          : static_cast<double>(rank - seen) /
                                static_cast<double>(in_bucket);
        return lo + (hi - lo) * frac;
    }
    return b.back();
}

double
Histogram::Snapshot::mean() const
{
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double
Histogram::percentile(double p) const
{
    return snapshot().percentile(p);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    SOD2_CHECK_LE(i, bounds_.size());
    return buckets_[i].load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    quiesced([&] {
        for (size_t i = 0; i <= bounds_.size(); ++i)
            buckets_[i].store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_bits_.store(0, std::memory_order_relaxed);
    });
}

MetricsRegistry&
MetricsRegistry::instance()
{
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
MetricsRegistry::histogram(const std::string& name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(
            bounds.empty() ? Histogram::defaultLatencyBoundsUs()
                           : std::move(bounds));
    return *slot;
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, counter] : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << counter->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, gauge] : gauges_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":"
           << static_cast<long long>(gauge->value());
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, hist] : histograms_) {
        if (!first)
            os << ",";
        first = false;
        // One snapshot per histogram: count, sum, and every percentile
        // come from the same bucket capture (no torn reads under
        // concurrent observe()).
        Histogram::Snapshot s = hist->snapshot();
        os << "\"" << jsonEscape(name) << "\":{\"count\":" << s.count
           << strFormat(",\"sum\":%.6g,\"p50\":%.6g,\"p95\":%.6g,"
                        "\"p99\":%.6g}",
                        s.sum, s.percentile(50), s.percentile(95),
                        s.percentile(99));
    }
    os << "}}";
    return os.str();
}

void
MetricsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, counter] : counters_)
        counter->reset();
    for (auto& [name, gauge] : gauges_)
        gauge->reset();
    for (auto& [name, hist] : histograms_)
        hist->reset();
}

}  // namespace sod2
