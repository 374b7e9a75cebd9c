#include "serving/affinity.h"

#include "support/logging.h"

namespace sod2 {
namespace serving {

const char*
affinityModeName(AffinityMode mode)
{
    switch (mode) {
        case AffinityMode::kShape:
            return "shape";
        case AffinityMode::kRoundRobin:
            return "round_robin";
    }
    return "unknown";
}

AffinityPolicy::AffinityPolicy(AffinityMode mode, size_t workers)
    : mode_(mode), workers_(workers)
{
    SOD2_CHECK_GT(workers, 0u) << "affinity policy needs >= 1 worker";
}

size_t
AffinityPolicy::pick(uint64_t signature)
{
    std::lock_guard<std::mutex> lock(mu_);
    switch (mode_) {
        case AffinityMode::kShape: {
            auto inserted = assignment_.emplace(signature, next_assign_);
            if (inserted.second)
                next_assign_ = (next_assign_ + 1) % workers_;
            return inserted.first->second;
        }
        case AffinityMode::kRoundRobin:
            return rr_++ % workers_;
    }
    SOD2_THROW << "unreachable affinity mode";
}

}  // namespace serving
}  // namespace sod2
