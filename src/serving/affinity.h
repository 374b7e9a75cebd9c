#ifndef SOD2_SERVING_AFFINITY_H_
#define SOD2_SERVING_AFFINITY_H_

/**
 * @file
 * Dispatch policies for the serving scheduler.
 *
 * The policy decides which worker a request runs on. For SoD2 this is
 * not a neutral choice: plans are keyed by shape signature, and a
 * worker whose *previous* run had the same signature serves the next
 * one from its RunContext's last-plan memo — no shared-cache lock, no
 * LRU traffic (core/run_context.h). Shape-affinity dispatch therefore
 * routes every request of one signature to one worker, keeping that
 * worker's memo hot; round-robin is the baseline it is measured
 * against (bench/serving_load).
 */

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace sod2 {
namespace serving {

/** How the scheduler maps an admitted request to a worker. */
enum class AffinityMode {
    /** Route by shape signature: the first request of a signature is
     *  assigned the next worker in rotation (so signatures spread
     *  evenly), and every later request of that signature follows it.
     *  Maximizes last-plan-memo hits under repeated shapes. */
    kShape,
    /** Strict rotation, signature-blind (the fairness baseline). */
    kRoundRobin,
};

/** Stable lowercase name ("shape", "round_robin"). */
const char* affinityModeName(AffinityMode mode);

/**
 * One dispatch decision per admitted request. Thread-safe: submit can
 * be called from any number of client threads.
 */
class AffinityPolicy
{
  public:
    AffinityPolicy(AffinityMode mode, size_t workers);

    AffinityMode mode() const { return mode_; }
    size_t workers() const { return workers_; }

    /**
     * Worker index for a request with shape signature @p signature.
     * kShape assignment is sticky: the first call for a signature
     * fixes its worker for the policy's lifetime.
     */
    size_t pick(uint64_t signature);

  private:
    AffinityMode mode_;
    size_t workers_;
    /** Guards assignment_/next_assign_ (kShape) and rr_ (kRoundRobin). */
    std::mutex mu_;
    /** signature -> worker, first-seen rotation (kShape). Keeping the
     *  map instead of hashing signature % workers guarantees distinct
     *  signatures spread across workers (no modular collisions). */
    std::unordered_map<uint64_t, size_t> assignment_;
    size_t next_assign_ = 0;
    uint64_t rr_ = 0;
};

}  // namespace serving
}  // namespace sod2

#endif  // SOD2_SERVING_AFFINITY_H_
