#include "core/plan_cache.h"

#include <algorithm>

#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace sod2 {

PlanCache::PlanCache(size_t capacity) : capacity_(capacity)
{
    SOD2_CHECK_GT(capacity, 0u) << "plan cache capacity must be positive";
}

std::vector<PlanCache::EntryIter>::iterator
PlanCache::chainFind(std::vector<EntryIter>& chain,
                     const std::vector<int64_t>& values)
{
    return std::find_if(chain.begin(), chain.end(),
                        [&](const EntryIter& e) {
                            return e->values == values;
                        });
}

void
PlanCache::removeFromIndexLocked(const Entry& entry)
{
    auto it = index_.find(entry.hash);
    SOD2_CHECK(it != index_.end());
    auto& chain = it->second;
    chain.erase(chainFind(chain, entry.values));
    if (chain.empty())
        index_.erase(it);
}

std::shared_ptr<const PlanInstance>
PlanCache::lookupLocked(uint64_t hash, const std::vector<int64_t>& values)
{
    auto it = index_.find(hash);
    if (it == index_.end())
        return nullptr;
    auto& chain = it->second;
    auto cit = chainFind(chain, values);
    if (cit == chain.end())
        return nullptr;
    entries_.splice(entries_.begin(), entries_, *cit);
    return entries_.front().plan;
}

void
PlanCache::insertLocked(uint64_t hash, std::vector<int64_t> values,
                        std::shared_ptr<const PlanInstance> plan)
{
    // Fault site, checked before any mutation: a failed insert must
    // leave entries_/index_ exactly as they were (no poisoned or
    // half-linked entry), which the placement here guarantees.
    if (fault::shouldFail(fault::kCacheInsert))
        SOD2_THROW_CODE(ErrorCode::kInternal)
            << "injected fault at " << fault::kCacheInsert
            << ": plan-cache insert failed";
    auto it = index_.find(hash);
    if (it != index_.end()) {
        auto cit = chainFind(it->second, values);
        if (cit != it->second.end()) {
            // In-place replace; in-flight runs keep their shared_ptr to
            // the old plan.
            (*cit)->plan = std::move(plan);
            entries_.splice(entries_.begin(), entries_, *cit);
            return;
        }
    }
    entries_.push_front(Entry{hash, std::move(values), std::move(plan)});
    index_[hash].push_back(entries_.begin());
    if (entries_.size() > capacity_) {
        if (Trace::enabled())
            Trace::threadBuffer().addInstant(
                "plan_cache.evict", "cache",
                strFormat("\"hash\":%llu",
                          static_cast<unsigned long long>(
                              entries_.back().hash)));
        removeFromIndexLocked(entries_.back());
        entries_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
PlanCache::retireFlightLocked(uint64_t hash, const Flight* flight)
{
    auto it = inflight_.find(hash);
    if (it == inflight_.end())
        return;
    auto& flights = it->second;
    flights.erase(std::remove_if(flights.begin(), flights.end(),
                                 [&](const std::shared_ptr<Flight>& f) {
                                     return f.get() == flight;
                                 }),
                  flights.end());
    if (flights.empty())
        inflight_.erase(it);
}

std::shared_ptr<const PlanInstance>
PlanCache::findOrInstantiate(uint64_t hash,
                             const std::vector<int64_t>& values,
                             const Instantiator& instantiate,
                             bool* instantiated)
{
    if (instantiated)
        *instantiated = false;

    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (auto plan = lookupLocked(hash, values)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return plan;
        }
        auto& flights = inflight_[hash];
        auto fit = std::find_if(flights.begin(), flights.end(),
                                [&](const std::shared_ptr<Flight>& f) {
                                    return f->values == values;
                                });
        if (fit != flights.end()) {
            flight = *fit;  // join the in-flight instantiation
            coalesced_.fetch_add(1, std::memory_order_relaxed);
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            flight = std::make_shared<Flight>();
            flight->values = values;
            flights.push_back(flight);
            leader = true;
        }
    }

    if (!leader) {
        std::unique_lock<std::mutex> flock(flight->mu);
        flight->cv.wait(flock, [&] { return flight->done; });
        if (flight->plan)
            return flight->plan;
        // The leader's instantiation failed; recover independently (no
        // single flight on this rare retry path).
        if (instantiated)
            *instantiated = true;
        return instantiate();
    }

    // Leader: instantiate outside the cache lock so a slow plan build
    // never blocks hits on other signatures.
    std::shared_ptr<const PlanInstance> plan;
    try {
        plan = instantiate();
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            retireFlightLocked(hash, flight.get());
        }
        {
            std::lock_guard<std::mutex> flock(flight->mu);
            flight->done = true;  // plan stays null: waiters self-serve
        }
        flight->cv.notify_all();
        throw;
    }
    if (instantiated)
        *instantiated = true;
    try {
        std::lock_guard<std::mutex> lock(mu_);
        insertLocked(hash, values, plan);
        retireFlightLocked(hash, flight.get());
    } catch (...) {
        // Insert failed but the plan itself is valid: publish it to the
        // waiters (they run with it; only the caching was lost), retire
        // the flight so later misses start fresh, and fail the leader
        // with the typed error. The cache is untouched — insertLocked
        // throws before mutating.
        {
            std::lock_guard<std::mutex> lock(mu_);
            retireFlightLocked(hash, flight.get());
        }
        {
            std::lock_guard<std::mutex> flock(flight->mu);
            flight->plan = plan;
            flight->done = true;
        }
        flight->cv.notify_all();
        throw;
    }
    {
        std::lock_guard<std::mutex> flock(flight->mu);
        flight->plan = plan;
        flight->done = true;
    }
    flight->cv.notify_all();
    return plan;
}

std::shared_ptr<const PlanInstance>
PlanCache::find(uint64_t hash, const std::vector<int64_t>& values)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto plan = lookupLocked(hash, values)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return plan;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

PlanCache::Counters
PlanCache::counters() const
{
    // Shared-lookup increments happen while mu_ is held (lookup,
    // flight join, eviction), so this lock yields a cross-counter-
    // consistent view of those; context-memo hits land lock-free (see
    // noteContextHit) and may be mid-increment, which only ever makes
    // hits/contextHits momentarily under-read together.
    std::lock_guard<std::mutex> lock(mu_);
    Counters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.coalesced = coalesced_.load(std::memory_order_relaxed);
    c.contextHits = context_hits_.load(std::memory_order_relaxed);
    return c;
}

void
PlanCache::insert(uint64_t hash, std::vector<int64_t> values,
                  std::shared_ptr<const PlanInstance> plan)
{
    std::lock_guard<std::mutex> lock(mu_);
    insertLocked(hash, std::move(values), std::move(plan));
}

size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::vector<std::pair<uint64_t, std::vector<int64_t>>>
PlanCache::residentSignatures(size_t max) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<uint64_t, std::vector<int64_t>>> out;
    for (const Entry& e : entries_) {
        if (out.size() >= max)
            break;
        out.emplace_back(e.hash, e.values);
    }
    return out;
}

}  // namespace sod2
