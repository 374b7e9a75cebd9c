#include "kernels/device_profile.h"

#include <algorithm>

namespace sod2 {

bool
hostHasAvx512f()
{
#if defined(__x86_64__)
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return has;
#else
    return false;
#endif
}

DeviceProfile
DeviceProfile::mobileCpu()
{
    DeviceProfile p;
    p.name = "sd888-cpu";
    p.simulated = false;
    p.flopsPerSec = 4.0e10;   // 8 Kryo-680 threads, fp32 NEON
    p.bytesPerSec = 2.0e10;
    p.launchOverheadSec = 5.0e-7;
    return p;
}

DeviceProfile
DeviceProfile::mobileGpu()
{
    DeviceProfile p;
    p.name = "sd888-gpu";
    p.simulated = true;
    p.flopsPerSec = 1.2e11;   // Adreno 660, fp16 rate applied separately
    p.bytesPerSec = 2.5e10;
    p.launchOverheadSec = 1.5e-5;   // command-queue dispatch
    p.allocSecPerByte = 1.2e-10;    // buffer mapping dominates fresh allocs
    p.fp16 = true;
    return p;
}

DeviceProfile
DeviceProfile::sd835Cpu()
{
    DeviceProfile p;
    p.name = "sd835-cpu";
    p.simulated = true;
    p.flopsPerSec = 1.4e10;   // Kryo 280, no big cores
    p.bytesPerSec = 9.0e9;    // much lower memory throughput
    p.launchOverheadSec = 8.0e-7;
    return p;
}

DeviceProfile
DeviceProfile::sd835Gpu()
{
    DeviceProfile p;
    p.name = "sd835-gpu";
    p.simulated = true;
    p.flopsPerSec = 4.0e10;   // Adreno 540: 384 ALUs vs 1024
    p.bytesPerSec = 1.2e10;
    p.launchOverheadSec = 2.0e-5;
    p.allocSecPerByte = 1.8e-10;
    p.fp16 = true;
    return p;
}

void
CostMeter::chargeKernel(double flops, double bytes)
{
    double f = profile_.flopsPerSec * (profile_.fp16 ? 2.0 : 1.0);
    double b = profile_.bytesPerSec;
    double data = bytes * (profile_.fp16 ? 0.5 : 1.0);
    seconds_ += std::max(flops / f, data / b) + profile_.launchOverheadSec;
    ++kernels_;
}

void
CostMeter::chargeAllocTouch(double bytes)
{
    seconds_ += bytes * profile_.allocSecPerByte;
}

void
CostMeter::chargeFixed(double seconds)
{
    seconds_ += seconds;
}

}  // namespace sod2
