#ifndef SOD2_BENCH_HARNESS_H_
#define SOD2_BENCH_HARNESS_H_

/**
 * @file
 * Shared benchmark harness: engine factory, input sweeps with paired
 * sampling (every engine sees the identical input sequence), and table
 * formatting that mirrors the paper's row/column layout.
 *
 * Sample counts default to SOD2_BENCH_SAMPLES (env) or 8; the paper uses
 * 50 random samples per model (§5.1) — pass SOD2_BENCH_SAMPLES=50 to
 * reproduce at full scale.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/engine_interface.h"
#include "baselines/mnn_like.h"
#include "baselines/ort_like.h"
#include "baselines/tflite_like.h"
#include "baselines/tvm_nimble_like.h"
#include "models/model_zoo.h"

namespace sod2 {
namespace bench {

/** Number of input samples per sweep (env SOD2_BENCH_SAMPLES, def. 8). */
int sampleCount();

/** Engine names understood by makeEngine. */
inline const std::vector<std::string> kEngineNames = {"ORT", "MNN",
                                                      "TVM-N", "SoD2"};

/** Instantiates an engine over @p spec's graph. */
std::unique_ptr<InferenceEngine> makeEngine(const std::string& name,
                                            const ModelSpec& spec,
                                            const DeviceProfile& device);

/** SoD2 with explicit ablation toggles (Figures 5/6). */
std::unique_ptr<InferenceEngine> makeSod2(const ModelSpec& spec,
                                          const DeviceProfile& device,
                                          FusionMode fusion, bool sep,
                                          bool dmp, bool mvc,
                                          bool all_branches = false);

/** Aggregate over one engine x one input sweep. */
struct SweepResult
{
    double minSeconds = 0, maxSeconds = 0, avgSeconds = 0;
    /** Exact nearest-rank latency percentiles (seconds) over the timed
     *  samples (SampleStats). */
    double p50Seconds = 0, p95Seconds = 0, p99Seconds = 0;
    size_t minMemory = 0, maxMemory = 0;
    double avgMemory = 0;
};

/**
 * Runs @p engine over @p samples inputs drawn from seed @p seed (one
 * warm-up run excluded from timing). @p size_hint pins the primary size
 * (-1 = random per sample).
 */
SweepResult sweep(InferenceEngine& engine, const ModelSpec& spec,
                  int samples, uint64_t seed, int64_t size_hint = -1);

// --- table formatting -------------------------------------------------

void printHeader(const std::string& title,
                 const std::vector<std::string>& columns);
void printRow(const std::vector<std::string>& cells);
void printSeparator();

std::string fmtMs(double seconds);
std::string fmtMb(double bytes);

/**
 * Geometric mean of @p values. Throws on an empty input. Non-positive
 * entries (for which log() is undefined) are skipped with a warning;
 * throws when no positive entry remains.
 */
double geoMean(const std::vector<double>& values);

/**
 * Exact order statistics over one latency sample set. The constructor
 * sorts a private copy once; every percentile() afterwards is a plain
 * index into it — callers taking p50/p95/p99 off one run must not pay
 * (or drift across) three separate sorts. Throws on an empty input,
 * like geoMean — an empty sample set is a harness bug, not a zero.
 */
class SampleStats
{
  public:
    explicit SampleStats(std::vector<double> samples);

    /** Exact @p q-quantile (0 <= q <= 1, nearest-rank). */
    double percentile(double q) const;

    double min() const { return sorted_.front(); }
    double max() const { return sorted_.back(); }
    double mean() const { return mean_; }
    size_t count() const { return sorted_.size(); }

  private:
    std::vector<double> sorted_;
    double mean_ = 0;
};

}  // namespace bench
}  // namespace sod2

#endif  // SOD2_BENCH_HARNESS_H_
