#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/env.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace sod2 {
namespace bench {

int
sampleCount()
{
    int n = env::benchSamples();
    return n > 0 ? n : 8;
}

std::unique_ptr<InferenceEngine>
makeEngine(const std::string& name, const ModelSpec& spec,
           const DeviceProfile& device)
{
    BaselineOptions bopts;
    bopts.rdp = spec.rdp;
    bopts.maxInputShapes = spec.maxInputShapes;
    bopts.device = device;

    if (name == "ORT")
        return std::make_unique<OrtLikeEngine>(spec.graph.get(), bopts);
    if (name == "MNN")
        return std::make_unique<MnnLikeEngine>(spec.graph.get(), bopts);
    if (name == "TVM-N")
        return std::make_unique<TvmNimbleLikeEngine>(spec.graph.get(),
                                                     bopts);
    if (name == "TFLite")
        return std::make_unique<TfliteLikeEngine>(spec.graph.get(), bopts);
    if (name == "SoD2") {
        Sod2Options sopts;
        sopts.rdp = spec.rdp;
        sopts.device = device;
        return std::make_unique<Sod2EngineAdapter>(spec.graph.get(),
                                                   std::move(sopts));
    }
    SOD2_THROW << "unknown engine '" << name << "'";
}

std::unique_ptr<InferenceEngine>
makeSod2(const ModelSpec& spec, const DeviceProfile& device,
         FusionMode fusion, bool sep, bool dmp, bool mvc,
         bool all_branches)
{
    Sod2Options sopts;
    sopts.rdp = spec.rdp;
    sopts.device = device;
    sopts.fusion = fusion;
    sopts.enableSep = sep;
    sopts.enableDmp = dmp;
    sopts.enableMvc = mvc;
    sopts.executeAllBranches = all_branches;
    return std::make_unique<Sod2EngineAdapter>(spec.graph.get(),
                                               std::move(sopts));
}

SweepResult
sweep(InferenceEngine& engine, const ModelSpec& spec, int samples,
      uint64_t seed, int64_t size_hint)
{
    SweepResult result;
    // Warm-up run (arena growth, caches) excluded from aggregates, as
    // the paper reports averages of repeated timed runs.
    {
        Rng warm(seed);
        RunStats stats;
        engine.run(spec.sample(warm, size_hint), &stats);
    }
    double total_s = 0, total_mem = 0;
    std::vector<double> latency;
    latency.reserve(static_cast<size_t>(samples));
    for (int i = 0; i < samples; ++i) {
        Rng rng(seed + 1 + i);  // identical stream for every engine
        auto inputs = spec.sample(rng, size_hint);
        RunStats stats;
        engine.run(inputs, &stats);
        double s = stats.seconds;
        size_t mem = stats.peakMemoryBytes;
        if (i == 0) {
            result.minSeconds = result.maxSeconds = s;
            result.minMemory = result.maxMemory = mem;
        }
        result.minSeconds = std::min(result.minSeconds, s);
        result.maxSeconds = std::max(result.maxSeconds, s);
        result.minMemory = std::min(result.minMemory, mem);
        result.maxMemory = std::max(result.maxMemory, mem);
        total_s += s;
        total_mem += static_cast<double>(mem);
        latency.push_back(s);
    }
    result.avgSeconds = total_s / samples;
    result.avgMemory = total_mem / samples;
    SampleStats order(std::move(latency));
    result.p50Seconds = order.percentile(0.50);
    result.p95Seconds = order.percentile(0.95);
    result.p99Seconds = order.percentile(0.99);
    return result;
}

namespace {
std::vector<size_t> g_widths;
}

void
printHeader(const std::string& title, const std::vector<std::string>& cols)
{
    std::printf("\n== %s ==\n", title.c_str());
    g_widths.clear();
    for (const auto& c : cols)
        g_widths.push_back(std::max<size_t>(c.size() + 2, 12));
    printRow(cols);
    printSeparator();
}

void
printRow(const std::vector<std::string>& cells)
{
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
        size_t w = i < g_widths.size() ? g_widths[i] : 12;
        line += padTo(cells[i], w);
    }
    std::printf("%s\n", line.c_str());
}

void
printSeparator()
{
    size_t total = 0;
    for (size_t w : g_widths)
        total += w;
    std::printf("%s\n", std::string(std::max<size_t>(total, 20), '-').c_str());
}

std::string
fmtMs(double seconds)
{
    return strFormat("%.2f", seconds * 1e3);
}

std::string
fmtMb(double bytes)
{
    return strFormat("%.2f", bytes / (1024.0 * 1024.0));
}

double
geoMean(const std::vector<double>& values)
{
    if (values.empty())
        SOD2_THROW << "geoMean of an empty vector";
    double log_sum = 0;
    size_t used = 0;
    for (double v : values) {
        if (v <= 0.0) {
            SOD2_LOG(kWarn) << "geoMean: skipping non-positive value "
                            << v;
            continue;
        }
        log_sum += std::log(v);
        ++used;
    }
    if (used == 0)
        SOD2_THROW << "geoMean: no positive values among "
                   << values.size() << " entries";
    return std::exp(log_sum / static_cast<double>(used));
}

SampleStats::SampleStats(std::vector<double> samples)
    : sorted_(std::move(samples))
{
    if (sorted_.empty())
        SOD2_THROW << "SampleStats over an empty sample set";
    std::sort(sorted_.begin(), sorted_.end());
    double total = 0;
    for (double v : sorted_)
        total += v;
    mean_ = total / static_cast<double>(sorted_.size());
}

double
SampleStats::percentile(double q) const
{
    SOD2_CHECK(q >= 0.0 && q <= 1.0)
        << "percentile wants a quantile in [0,1], got " << q;
    // Nearest-rank on the pre-sorted copy: ceil(q*N)-th smallest.
    size_t n = sorted_.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return sorted_[rank - 1];
}

}  // namespace bench
}  // namespace sod2
