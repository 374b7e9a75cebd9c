#ifndef SOD2_CORE_PLAN_CACHE_H_
#define SOD2_CORE_PLAN_CACHE_H_

/**
 * @file
 * Shape-signature plan cache.
 *
 * DMP instantiation (paper §4.4.1) is lightweight but not free: every
 * run re-evaluates each interval's symbolic byte expression and replays
 * the peak-outward placement. Serving traffic repeats input-shape
 * signatures heavily (Table 7's input distributions), so the engine
 * memoizes the fully instantiated plan — concrete interval sizes, arena
 * offsets, arena size, and the per-group multi-version kernel choices —
 * keyed by the canonical symbol-binding signature. A hit replaces all
 * per-run planning work with one hash lookup.
 *
 * Concurrency: the cache is shared by every thread running one engine,
 * so the LRU structures are mutex-guarded and the hit/miss/eviction
 * counters are atomic. findOrInstantiate() additionally single-flights
 * plan construction: when N threads miss the same signature at once,
 * exactly one runs the (relatively expensive) instantiation while the
 * others block on it and share the result — the stampede-suppression
 * count is surfaced as Counters::coalesced. Entries are immutable and
 * shared_ptr-held, so a run keeps its plan alive even if the entry is
 * evicted before the run finishes.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "codegen/kernel_tuner.h"
#include "memory/lifetime.h"
#include "memory/planners.h"
#include "rdp/rdp_analysis.h"

namespace sod2 {

/** One fully instantiated runtime plan for a concrete shape signature. */
struct PlanInstance
{
    /** Concrete lifetime intervals (sizes evaluated under the
     *  signature's bindings) — retained for plan re-validation. */
    std::vector<Interval> intervals;
    /** Peak-outward placement over @ref intervals. */
    MemPlan plan;
    /** Dense per-value offset table (kUnplannedOffset = heap value). */
    std::shared_ptr<const std::vector<size_t>> offsetOfValue;
    /** Arena bytes the plan requires. */
    size_t arenaBytes = 0;
    /** Per-group kernel-version choices (MVC, §4.4.2). */
    std::vector<GroupKernelChoice> versions;
};

/**
 * Concurrency-safe LRU cache of instantiated plans, keyed by the
 * canonical symbol-binding vector (SymbolBinder::bind output) plus its
 * signature hash. The vector form keeps lookups free of string
 * traffic: within one engine the symbol schema is fixed, so equal
 * value vectors mean equal signatures.
 */
class PlanCache
{
  public:
    /** Builds @p inst for a missed signature (may throw). */
    using Instantiator =
        std::function<std::shared_ptr<const PlanInstance>()>;

    /** @p capacity distinct signatures; must be > 0. */
    explicit PlanCache(size_t capacity);

    /**
     * The serving-path lookup: returns the cached plan for
     * (@p hash, @p values), or single-flights @p instantiate.
     *
     * - Hit: bumps the entry most-recent, counts one hit.
     * - First miss: counts one miss, runs @p instantiate *outside* the
     *   cache lock, inserts the result, and wakes any waiters.
     * - Concurrent miss on the same signature: counts one coalesced
     *   lookup and blocks until the in-flight leader publishes, then
     *   shares the leader's instance (no duplicate instantiation).
     *
     * When the leader's @p instantiate throws, the exception propagates
     * on the leader; waiters fall back to instantiating for themselves.
     * When instantiation succeeds but the *insert* fails (the
     * cache.insert fault site), the cache is left unmodified — no
     * poisoned entry — the valid plan is still published to waiters,
     * and the typed error propagates on the leader only.
     * @p instantiated (optional) reports whether *this* call ran the
     * instantiator — i.e. false means the caller skipped plan work.
     */
    std::shared_ptr<const PlanInstance>
    findOrInstantiate(uint64_t hash, const std::vector<int64_t>& values,
                      const Instantiator& instantiate,
                      bool* instantiated = nullptr);

    /** Returns the cached plan for (@p hash, @p values) and bumps it
     *  most-recent, or null. Counts one hit or one miss. */
    std::shared_ptr<const PlanInstance>
    find(uint64_t hash, const std::vector<int64_t>& values);

    /** Inserts @p plan as most-recent, evicting the least recently used
     *  entry when over capacity. Replaces any existing entry for the
     *  key without counting an eviction. */
    void insert(uint64_t hash, std::vector<int64_t> values,
                std::shared_ptr<const PlanInstance> plan);

    /**
     * Records that a run reused its RunContext's last-plan memo — the
     * lock-free warm path in front of this cache — instead of taking
     * the shared lookup. Counted as one hit (the run did reuse a
     * cached plan) plus one contextHits, so hit totals stay comparable
     * with and without the memo while contextHits isolates how often
     * shape-affinity kept a worker on its warm plan. These two
     * increments are relaxed and happen outside mu_ (taking the lock
     * would defeat the memo's purpose).
     */
    void
    noteContextHit()
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
        context_hits_.fetch_add(1, std::memory_order_relaxed);
    }

    size_t size() const;
    size_t capacity() const { return capacity_; }

    /**
     * The (hash, values) keys of up to @p max resident entries,
     * most-recently-used first. The engine snapshot (core/snapshot.h)
     * persists these so a loaded engine can pre-instantiate the same
     * hot signatures. Does not bump recency.
     */
    std::vector<std::pair<uint64_t, std::vector<int64_t>>>
    residentSignatures(size_t max) const;

    /**
     * The cache's cumulative counters since construction, as one
     * mutually consistent view. Every shared-lookup increment happens
     * under the cache mutex, so taking it here guarantees
     * cross-counter invariants hold in the snapshot (e.g. hits -
     * contextHits + misses + coalesced == shared lookups started so
     * far).
     */
    struct Counters
    {
        size_t hits = 0;
        size_t misses = 0;
        size_t evictions = 0;
        /** Lookups that joined another thread's in-flight
         *  instantiation instead of duplicating it (suppressed cache
         *  stampedes). */
        size_t coalesced = 0;
        /** Subset of hits served by a RunContext's last-plan memo
         *  without touching the shared cache (see noteContextHit;
         *  incremented outside the cache mutex, so only hits -
         *  contextHits + misses + coalesced is exactly partitioned by
         *  the lock at snapshot time). */
        size_t contextHits = 0;
    };
    Counters counters() const;

  private:
    struct Entry
    {
        uint64_t hash;
        std::vector<int64_t> values;
        std::shared_ptr<const PlanInstance> plan;
    };
    using EntryIter = std::list<Entry>::iterator;

    /** One in-flight instantiation other threads can wait on. */
    struct Flight
    {
        std::vector<int64_t> values;
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const PlanInstance> plan;  ///< null = failed
    };

    /** Chain entry for @p hash whose values match, or chain end. */
    static std::vector<EntryIter>::iterator
    chainFind(std::vector<EntryIter>& chain,
              const std::vector<int64_t>& values);
    void removeFromIndexLocked(const Entry& entry);
    /** Lookup + LRU bump; requires mu_. Does not count hit/miss. */
    std::shared_ptr<const PlanInstance>
    lookupLocked(uint64_t hash, const std::vector<int64_t>& values);
    void insertLocked(uint64_t hash, std::vector<int64_t> values,
                      std::shared_ptr<const PlanInstance> plan);
    void retireFlightLocked(uint64_t hash, const Flight* flight);

    size_t capacity_;
    /** Guards entries_, index_, and inflight_. */
    mutable std::mutex mu_;
    /** Most-recent first. */
    std::list<Entry> entries_;
    /** hash -> entries with that hash (collision chain, ~1 element). */
    std::unordered_map<uint64_t, std::vector<EntryIter>> index_;
    /** hash -> in-flight instantiations (single-flight registry). */
    std::unordered_map<uint64_t, std::vector<std::shared_ptr<Flight>>>
        inflight_;
    std::atomic<size_t> hits_{0};
    std::atomic<size_t> misses_{0};
    std::atomic<size_t> evictions_{0};
    std::atomic<size_t> coalesced_{0};
    std::atomic<size_t> context_hits_{0};
};

}  // namespace sod2

#endif  // SOD2_CORE_PLAN_CACHE_H_
