/**
 * @file
 * Paper Table 1: the cost of execution re-initialization under shape
 * dynamism with an MNN-style engine. For YOLO-V6, Conformer, and
 * CodeBERT, every input gets a fresh shape signature, so the engine
 * re-pays SL (shape propagation + layout selection), ST (schedule &
 * tuning), and Alloc (memory planning) before each inference. The
 * paper's headline: re-initialization often exceeds inference itself.
 */

#include <chrono>
#include <functional>
#include <sys/stat.h>

#include "core/snapshot.h"
#include "harness.h"
#include "support/string_util.h"

using namespace sod2;
using namespace sod2::bench;

namespace {

void
runDevice(const char* title, const DeviceProfile& device)
{
    printHeader(title, {"Model", "SL (ms)", "ST (ms)", "Alloc (ms)",
                        "Infer (ms)", "reinit/infer"});
    int samples = sampleCount();
    for (const std::string& model_name :
         {std::string("YOLO-V6"), std::string("Conformer"),
          std::string("CodeBERT")}) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        BaselineOptions bopts;
        bopts.rdp = spec.rdp;
        bopts.maxInputShapes = spec.maxInputShapes;
        bopts.device = device;
        MnnLikeEngine engine(spec.graph.get(), bopts);

        double sl = 0, st = 0, alloc = 0, infer = 0;
        int reinits = 0;
        for (int i = 0; i < samples; ++i) {
            Rng sample_rng(500 + i);
            auto inputs = spec.sample(sample_rng, -1);
            RunStats stats;
            engine.run(inputs, &stats);
            if (stats.phaseSeconds.at("SL") > 0 || i == 0) {
                sl += stats.phaseSeconds.at("SL");
                st += stats.phaseSeconds.at("ST");
                alloc += stats.phaseSeconds.at("Alloc");
                ++reinits;
            }
            infer += stats.phaseSeconds.at("Infer");
        }
        double n = std::max(1, reinits);
        double infer_avg = infer / samples;
        double reinit_avg = (sl + st + alloc) / n;
        printRow({spec.name, fmtMs(sl / n), fmtMs(st / n),
                  fmtMs(alloc / n), fmtMs(infer_avg),
                  strFormat("%.1fx", reinit_avg / infer_avg)});
    }
}

double
secondsOf(const std::function<void()>& fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * SoD2's answer to Table 1's re-initialization bill: boot the engine
 * from a snapshot (core/snapshot.h) instead of re-running the compile
 * pipeline. Both columns use tuneKernels — the GA kernel-tuning run
 * that is the analog of the paper's dominant "ST" column — so the
 * compile column is the true full boot cost; loadSnapshot() restores the
 * tuned version table (plus RDP, folding, fusion, SEP order) from the
 * file and skips all of it, paying only the parse and the cheap
 * derived-state rebuild. Returns the geomean speedup, which main()
 * gates (>= 5x) through the exit code.
 */
double
runSnapshotBoot()
{
    printHeader("Table 1c: SoD2 boot cost — full compile vs snapshot "
                "load",
                {"Model", "Compile (ms)", "Snap load (ms)", "Speedup"});
    std::string dir = "/tmp/sod2_bench_snapshots";
    ::mkdir(dir.c_str(), 0755);
    std::vector<double> speedups;
    for (const std::string& model_name :
         {std::string("YOLO-V6"), std::string("Conformer"),
          std::string("CodeBERT")}) {
        Rng rng(1234);
        ModelSpec spec = buildModel(model_name, rng);
        Sod2Options opts;
        opts.rdp = spec.rdp;
        opts.tuneKernels = true;  // pay (and then amortize) the ST cost

        std::string path = snapshotPathFor(dir, spec.name);
        {
            Sod2Engine seed_engine(spec.graph.get(), opts);
            saveSnapshot(seed_engine, path);
        }
        double compile_s = 1e30, load_s = 1e30;
        for (int i = 0; i < 3; ++i) {
            compile_s = std::min(compile_s, secondsOf([&] {
                Sod2Engine engine(spec.graph.get(), opts);
            }));
            load_s = std::min(load_s, secondsOf([&] {
                auto loaded = loadSnapshot(spec.graph.get(), opts, path);
                if (!loaded || !loaded->loadedFromSnapshot())
                    std::abort();  // a bench that silently recompiles lies
            }));
        }
        double speedup = compile_s / load_s;
        speedups.push_back(speedup);
        printRow({spec.name, fmtMs(compile_s), fmtMs(load_s),
                  strFormat("%.1fx", speedup)});
    }
    double geo = geoMean(speedups);
    std::printf("snapshot-load speedup (geomean): %.1fx (gate: >= 5x)\n",
                geo);
    return geo;
}

}  // namespace

int
main()
{
    runDevice("Table 1a: MNN-style re-initialization overhead, CPU",
              DeviceProfile::mobileCpu());
    runDevice("Table 1b: MNN-style re-initialization overhead, GPU "
              "(simulated)",
              DeviceProfile::mobileGpu());
    double snapshot_speedup = runSnapshotBoot();
    std::printf("(paper, CPU: YOLOv6 SL 69 / ST 1155 / Alloc 22 / Infer "
                "476 ms — re-init dominates inference)\n");
    return snapshot_speedup >= 5.0 ? 0 : 1;
}
