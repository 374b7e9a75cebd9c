#ifndef SOD2_KERNELS_DEVICE_PROFILE_H_
#define SOD2_KERNELS_DEVICE_PROFILE_H_

/**
 * @file
 * Device profiles and the analytic kernel cost model.
 *
 * The paper evaluates on Snapdragon 888 / 835 mobile CPU + GPU. We run
 * kernels on the host CPU; the "mobile GPU" and "Snapdragon 835" rows of
 * the evaluation are *simulated device profiles*: every kernel/framework
 * action is charged to an analytic roofline-style cost model
 * (max(compute, memory) + launch overhead). All planning, fusion, and
 * allocation decisions are executed for real on the same code paths —
 * only the per-kernel latency constants change, which is exactly the
 * portability claim of paper §5.5.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace sod2 {

class Sod2Engine;

/** A target device's roofline parameters. */
struct DeviceProfile
{
    std::string name;
    /** When true, engines report cost-model time instead of wall time. */
    bool simulated = false;
    /** Sustained FLOP/s for dense compute (fp32; fp16 doubles this). */
    double flopsPerSec = 2.0e10;
    /** Sustained DRAM bandwidth, bytes/s. */
    double bytesPerSec = 1.5e10;
    /** Per-kernel launch/dispatch overhead, seconds. */
    double launchOverheadSec = 2.0e-6;
    /** Extra cost per byte of freshly allocated memory touched (page
     *  faults / cache mapping); the paper's Table 1 "Alloc" column on
     *  GPU is dominated by this. */
    double allocSecPerByte = 0.0;
    /** Uses 16-bit floats (halves bytes moved, doubles flops). */
    bool fp16 = false;

    /** Snapdragon 888-like big.LITTLE CPU (the primary testbed). */
    static DeviceProfile mobileCpu();
    /** Adreno 660-like mobile GPU (simulated; fp16). */
    static DeviceProfile mobileGpu();
    /** Snapdragon 835 CPU: ~2.5x less compute, smaller caches. */
    static DeviceProfile sd835Cpu();
    /** Adreno 540 GPU (simulated; 384 vs 1024 ALUs). */
    static DeviceProfile sd835Gpu();
};

/**
 * True when the host CPU and OS support AVX-512F, so conv2d and the
 * GEMM kernels take their AVX-512 path. Read once per process.
 */
bool hostHasAvx512f();

/** Accumulates simulated time for one engine run. */
class CostMeter
{
  public:
    explicit CostMeter(DeviceProfile profile) : profile_(std::move(profile)) {}

    const DeviceProfile& profile() const { return profile_; }

    /** Charges one kernel: @p flops compute over @p bytes traffic. */
    void chargeKernel(double flops, double bytes);
    /** Charges first-touch of @p bytes freshly allocated memory. */
    void chargeAllocTouch(double bytes);
    /** Charges a fixed latency (framework bookkeeping on-device). */
    void chargeFixed(double seconds);

    void reset() { seconds_ = 0.0; kernels_ = 0; }
    double seconds() const { return seconds_; }
    int64_t kernelCount() const { return kernels_; }

    /**
     * Predicts one run's latency, in microseconds, for @p engine on the
     * dynamic-dimension binding @p values (the same vector
     * Sod2Engine::signatureFor hashes), by charging every node the RDP
     * analysis can statically shape to the engine's own device profile.
     * The portability bench (bench/fig13_portability) reads its
     * CPU/GPU crossover from this. Nodes whose shapes stay
     * data-dependent under RDP are skipped, so the estimate is a lower
     * bound. Defined in src/core/cost_predict.cpp (prediction needs the
     * engine's RDP result; kernels/ itself must not depend on core/).
     */
    static double predictRunMicros(const Sod2Engine& engine,
                                   const std::vector<int64_t>& values);

  private:
    DeviceProfile profile_;
    double seconds_ = 0.0;
    int64_t kernels_ = 0;
};

}  // namespace sod2

#endif  // SOD2_KERNELS_DEVICE_PROFILE_H_
