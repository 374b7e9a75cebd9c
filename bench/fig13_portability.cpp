/**
 * @file
 * Paper Figure 13: portability — the same engines on the (simulated)
 * Snapdragon-835 CPU/GPU profiles, five models (SDE, YOLO-V6, SkipNet,
 * ConvNet-AIG, BlockDrop), latency normalized by MNN as in the paper.
 * SoD2's advantage grows on the more constrained SoC because its
 * memory-footprint reductions matter more there.
 */

#include "harness.h"
#include "support/string_util.h"

using namespace sod2;
using namespace sod2::bench;

namespace {

void
runDevice(const char* title, const DeviceProfile& device)
{
    int samples = sampleCount();
    printHeader(title,
                {"Model", "ORT", "MNN", "TVM-N", "SoD2 (speedup/MNN)"});
    for (const char* model_name :
         {"SDE", "YOLO-V6", "SkipNet", "ConvNet-AIG", "BlockDrop"}) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        std::map<std::string, double> avg;
        for (const std::string& engine_name : kEngineNames) {
            auto engine = makeEngine(engine_name, spec, device);
            avg[engine_name] =
                sweep(*engine, spec, samples, 55).avgSeconds;
        }
        double mnn = avg["MNN"];
        printRow({spec.name, strFormat("%.2f", avg["ORT"] / mnn), "1.00",
                  strFormat("%.2f", avg["TVM-N"] / mnn),
                  strFormat("%.2f (%.2fx)", avg["SoD2"] / mnn,
                            mnn / avg["SoD2"])});
    }
}

/**
 * CPU/GPU crossover table from the static prediction path
 * (CostMeter::predictRunMicros): per pinned input size, the cost
 * model's predicted latency on each SD-835 profile and which side
 * wins. Small inputs favor the CPU (no launch overhead), large ones
 * the GPU (more flops).
 */
void
printCrossover()
{
    printHeader("Predicted CPU/GPU crossover (SD-835 profiles, "
                "CostMeter::predictRunMicros)",
                {"Model", "Size", "CPU us", "GPU us", "Winner"});
    for (const char* model_name : {"SDE", "YOLO-V6"}) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        Sod2Options opts;
        opts.rdp = spec.rdp;
        opts.device = DeviceProfile::sd835Cpu();
        Sod2Engine cpu(spec.graph.get(), opts);
        opts.device = DeviceProfile::sd835Gpu();
        Sod2Engine gpu(spec.graph.get(), opts);
        for (int64_t frac : {0, 25, 50, 75, 100}) {
            int64_t size = spec.legalizeSize(
                spec.minSize + (spec.maxSize - spec.minSize) * frac / 100);
            Rng srng(55);
            std::vector<Tensor> inputs = spec.sample(srng, size);
            std::vector<int64_t> values;
            cpu.signatureFor(inputs, &values);
            double cpu_us = CostMeter::predictRunMicros(cpu, values);
            double gpu_us = CostMeter::predictRunMicros(gpu, values);
            printRow({spec.name, strFormat("%lld", (long long)size),
                      strFormat("%.1f", cpu_us),
                      strFormat("%.1f", gpu_us),
                      cpu_us <= gpu_us ? "CPU" : "GPU"});
        }
    }
}

}  // namespace

int
main()
{
    runDevice("Figure 13a: Snapdragon-835 CPU profile (simulated), "
              "normalized by MNN",
              DeviceProfile::sd835Cpu());
    runDevice("Figure 13b: Snapdragon-835 GPU profile (simulated), "
              "normalized by MNN",
              DeviceProfile::sd835Gpu());
    printCrossover();
    std::printf("(paper: similar speedup trends, larger on the older "
                "SoC's constrained resources)\n");
    return 0;
}
