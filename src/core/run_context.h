#ifndef SOD2_CORE_RUN_CONTEXT_H_
#define SOD2_CORE_RUN_CONTEXT_H_

/**
 * @file
 * RunContext — the per-request mutable half of engine execution.
 *
 * A compiled Sod2Engine is immutable after construction; everything a
 * run mutates lives here instead: the memory arena the DMP plan
 * executes in, the canonical symbol-binding scratch vector, the
 * fallback pool allocator (DMP-off ablation), and the folded-constant
 * seed environment each run starts from. One engine + N contexts = N
 * concurrent requests; the engine's shape-signature plan cache is
 * internally synchronized and shared across all of them.
 *
 * A context is NOT thread-safe — it is the unit of thread affinity:
 * use one per request thread (they are cheap; the arena grows lazily
 * and trims itself back after outlier shapes). Contexts bind lazily to
 * the first engine that runs with them and rebind automatically when
 * handed to a different engine.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "memory/pool_allocator.h"
#include "runtime/arena.h"
#include "support/trace.h"
#include "tensor/tensor.h"

namespace sod2 {

class Sod2Engine;
struct PlanInstance;

/** Per-request mutable execution state; see file comment. */
class RunContext
{
  public:
    RunContext() = default;

    RunContext(const RunContext&) = delete;
    RunContext& operator=(const RunContext&) = delete;

    /** The arena this context executes in (observability/tests). */
    const Arena& arena() const { return arena_; }

    /**
     * Drops the arena's backing buffer immediately (capacity -> 0); the
     * next run re-reserves exactly what its plan needs. This is the
     * externally-triggered counterpart of the arena's own high-water
     * trim: the fleet's MemoryGovernor calls it (through
     * Sod2Server::trimArenas) to reclaim an idle member's bytes under
     * global budget pressure. NOT thread-safe — call only from the
     * thread that owns this context, or while no run is in flight.
     */
    void trimArena() { arena_.reset(); }

    /** The engine this context is currently bound to (null before the
     *  first run). */
    const Sod2Engine* boundEngine() const { return engine_; }

    /**
     * This context's trace lane (support/trace.h): when SOD2_TRACE is
     * on, every run through this context records its spans here, so a
     * concurrent-serving trace shows one lane per context. Use
     * traceBuffer().setLaneName("worker-3") to label the lane.
     */
    TraceBuffer& traceBuffer() { return trace_; }
    const TraceBuffer& traceBuffer() const { return trace_; }

  private:
    friend class Sod2Engine;

    const Sod2Engine* engine_ = nullptr;
    Arena arena_;
    /** Scratch canonical binding vector, reused across runs. */
    std::vector<int64_t> binding_values_;
    /** Runtime allocator when DMP is disabled (the ablation's default
     *  greedy pool, standing in for plan-less allocation). */
    std::shared_ptr<PoolAllocator> fallback_pool_;
    /** Value-indexed env template pre-seeded with the engine's folded
     *  constants; each run starts from a copy. */
    std::vector<Tensor> folded_env_;
    /**
     * Last-plan memo — the serving scheduler's warm path. When the
     * next run's canonical binding vector matches, the engine reuses
     * this plan without touching the shared PlanCache (no mutex, no
     * LRU bump), which is what makes shape-affinity dispatch pay:
     * routing same-signature requests to the same worker keeps its
     * context's memo hot. Cleared on rebind.
     *
     * Keyed on (hash, binding values) alone: a plan is a pure function
     * of the engine and the binding, so a memo outliving its cache
     * entry's eviction still holds the right plan. It pins at most that
     * one PlanInstance (offset and interval tables, not arena bytes).
     */
    std::shared_ptr<const PlanInstance> last_plan_;
    uint64_t last_plan_hash_ = 0;
    std::vector<int64_t> last_plan_values_;
    /** Per-context trace lane (inert unless tracing is enabled). */
    TraceBuffer trace_;
};

}  // namespace sod2

#endif  // SOD2_CORE_RUN_CONTEXT_H_
