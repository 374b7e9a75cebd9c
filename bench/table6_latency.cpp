/**
 * @file
 * Paper Table 6: end-to-end latency (min/max ms over the input sweep)
 * for ORT, MNN, TVM-N, and SoD2 on the mobile-CPU profile and the
 * simulated mobile-GPU profile, plus geo-mean speedups of SoD2 (paper:
 * CPU 2.5x/1.7x/2.7x over ORT/MNN/TVM-N; GPU 3.9x/2.3x over ORT/MNN).
 */

#include <map>

#include "harness.h"
#include "support/string_util.h"

using namespace sod2;
using namespace sod2::bench;

namespace {

void
runDevice(const char* title, const DeviceProfile& device)
{
    int samples = sampleCount();
    printHeader(title, {"Model", "ORT min", "ORT max", "MNN min",
                        "MNN max", "TVM-N min", "TVM-N max", "SoD2 min",
                        "SoD2 max"});
    std::map<std::string, std::vector<double>> avg;
    std::vector<std::vector<std::string>> sod2_pct_rows;
    for (const std::string& model_name : allModelNames()) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        std::vector<std::string> row = {spec.name};
        for (const std::string& engine_name : kEngineNames) {
            auto engine = makeEngine(engine_name, spec, device);
            SweepResult r = sweep(*engine, spec, samples, 77);
            row.push_back(fmtMs(r.minSeconds));
            row.push_back(fmtMs(r.maxSeconds));
            avg[engine_name].push_back(r.avgSeconds);
            if (engine_name == "SoD2")
                sod2_pct_rows.push_back(
                    {spec.name, fmtMs(r.p50Seconds), fmtMs(r.p95Seconds),
                     fmtMs(r.p99Seconds), fmtMs(r.avgSeconds)});
        }
        printRow(row);
    }
    printSeparator();
    double sod2 = geoMean(avg["SoD2"]);
    printRow({"geo-mean /SoD2",
              strFormat("%.2fx", geoMean(avg["ORT"]) / sod2), "",
              strFormat("%.2fx", geoMean(avg["MNN"]) / sod2), "",
              strFormat("%.2fx", geoMean(avg["TVM-N"]) / sod2), "",
              "1.00x", ""});

    // Tail-latency view of the SoD2 column (exact nearest-rank order
    // statistics; the paper reports averages only, this is the
    // serving-oriented cut).
    printHeader(strFormat("%s — SoD2 latency percentiles", title),
                {"Model", "p50", "p95", "p99", "avg"});
    for (const auto& row : sod2_pct_rows)
        printRow(row);
    printSeparator();
}

}  // namespace

int
main()
{
    runDevice("Table 6a: end-to-end latency (ms), mobile CPU",
              DeviceProfile::mobileCpu());
    runDevice("Table 6b: end-to-end latency (ms), mobile GPU (simulated)",
              DeviceProfile::mobileGpu());
    std::printf("(paper CPU: SoD2 2.5x vs ORT, 1.7x vs MNN, 2.7x vs "
                "TVM-N; GPU: 3.9x vs ORT, 2.3x vs MNN)\n");
    return 0;
}
