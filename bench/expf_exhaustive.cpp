/**
 * Exhaustive check of the vector expf (kernels/vector_exp.h): runs
 * expBlock, the AVX-512 path with its std::exp fallback for |x| >= 88
 * and NaN, over all 2^32 float bit patterns and compares every result
 * with std::exp bit for bit. Prints one JSON line and exits 1 on any
 * difference, so scripts/check.sh uses it as the `kernels` bench gate.
 * On a host without AVX-512F there is no vector path to check; it says
 * so and exits 0.
 *
 *   build/bench/expf_exhaustive
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "kernels/device_profile.h"
#include "kernels/vector_exp.h"

namespace {

constexpr uint64_t kPatterns = uint64_t{1} << 32;
/** Bit patterns per work item. */
constexpr uint64_t kBatch = uint64_t{1} << 16;

}  // namespace

int
main()
{
    using namespace sod2;
    if (!hostHasAvx512f()) {
        std::printf("expf_exhaustive: no AVX-512F on this host, the "
                    "scalar std::exp path is in use; nothing to check\n");
        std::printf("JSON: {\"bench\":\"expf_exhaustive\",\"skipped\":true}"
                    "\n");
        return 0;
    }
    const int threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 8u));
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> mismatches{0};
    std::mutex print_mu;
    int printed = 0;
    auto worker = [&] {
        std::vector<float> x(kBatch), got(kBatch);
        for (;;) {
            uint64_t base = next.fetch_add(kBatch);
            if (base >= kPatterns)
                return;
            for (uint64_t i = 0; i < kBatch; ++i) {
                uint32_t bits = static_cast<uint32_t>(base + i);
                std::memcpy(&x[i], &bits, sizeof bits);
            }
            expBlock(x.data(), got.data(), static_cast<int64_t>(kBatch));
            for (uint64_t i = 0; i < kBatch; ++i) {
                float want = std::exp(x[i]);
                if (std::memcmp(&want, &got[i], sizeof want) == 0)
                    continue;
                mismatches.fetch_add(1);
                std::lock_guard<std::mutex> lock(print_mu);
                if (printed++ < 10)
                    std::printf("mismatch: x = %a: vector %a, std::exp %a\n",
                                x[i], got[i], want);
            }
        }
    };
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread& t : pool)
        t.join();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    uint64_t bad = mismatches.load();
    std::printf("expf_exhaustive: %llu of 2^32 patterns differ from "
                "std::exp (%d threads, %.1f s); vector path %s\n",
                static_cast<unsigned long long>(bad), threads, seconds,
                vectorExpEnabled() ? "enabled" : "disabled by its self-check");
    std::printf("JSON: {\"bench\":\"expf_exhaustive\",\"patterns\":%llu,"
                "\"mismatches\":%llu,\"threads\":%d,\"seconds\":%.2f}\n",
                static_cast<unsigned long long>(kPatterns),
                static_cast<unsigned long long>(bad), threads, seconds);
    return bad == 0 ? 0 : 1;
}
