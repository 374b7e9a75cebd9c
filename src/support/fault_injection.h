#ifndef SOD2_SUPPORT_FAULT_INJECTION_H_
#define SOD2_SUPPORT_FAULT_INJECTION_H_

/**
 * @file
 * Deterministic fault injection for the serving path.
 *
 * Dynamic models fail per request, not per deploy — so the interesting
 * failure states (mid-plan, mid-group, mid-cache-insert, under N
 * concurrent runs) are exactly the ones ordinary tests never reach.
 * This framework plants named *fault sites* at the runtime's hazard
 * points; arming a site makes its scheduled hits report failure, and
 * the code hosting the site throws its real typed error — the same
 * Error, with the same ErrorCode and unwind path, a genuine fault
 * would produce.
 *
 * Two schedules exist:
 *   - one-shot (the default, arm()): the site fires exactly once, on
 *     its nth hit since arming, then disarms itself, so "the faulted
 *     request fails, the next run of the same context is bit-exact"
 *     is directly testable.
 *   - periodic (armEvery()): the site fires on every kth hit and stays
 *     armed until disarm(), so soaks can drive *sustained* failures —
 *     e.g. a signature whose plan build always faults — instead of a
 *     single transient.
 *
 * Multiple sites may be armed at once via armSpec(), which parses the
 * same grammar as the SOD2_FAULT env var:
 *     <entry>[,<entry>...]   entry := <site>[:<nth>|:every=<k>]
 * (nth defaults to 1). The whole spec is validated before any site is
 * armed: unknown sites, zero counts, duplicates, or malformed integers
 * reject the entire spec with a typed kInvalidInput. arm()/armEvery()/
 * armSpec() each replace ALL previous arming.
 *
 * Thread-safety: the disarmed fast path is one relaxed atomic load.
 * Armed-state bookkeeping (site match, hit counting) is mutex-guarded,
 * so concurrent hits race benignly: exactly one caller observes each
 * scheduled fire. fireCount() is cumulative across re-arms.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace sod2 {
namespace fault {

// --- the fault-site catalog (see DESIGN.md §10) -----------------------
/** Arena::reserve — growing/remapping a RunContext's arena. */
inline constexpr const char* kArenaAlloc = "arena.alloc";
/** Sod2Engine::instantiatePlan — per-signature DMP/MVC plan build. */
inline constexpr const char* kPlanInstantiate = "plan.instantiate";
/** executeNode / CompiledGroup::run — operator kernel dispatch. */
inline constexpr const char* kKernelDispatch = "kernel.dispatch";
/** PlanCache insert — publishing an instantiated plan to the LRU. */
inline constexpr const char* kCacheInsert = "cache.insert";
/** Sod2Fleet routing — the router's chosen member is dead/faulted;
 *  firing it must fail over to the next-best member, typed, without
 *  dropping the request (DESIGN.md §16). */
inline constexpr const char* kFleetRoute = "fleet.route";

/** All valid site names (arm() rejects anything else). */
const std::vector<std::string>& knownSites();

/**
 * True exactly when @p site is armed and this call is one of its
 * scheduled hits (the nth since arming for one-shot sites, every kth
 * for periodic ones). One-shot sites auto-disarm on fire; periodic
 * sites stay armed. The caller must react by throwing its typed
 * error. Near-free when nothing is armed.
 */
bool shouldFail(const char* site);

/** Arms @p site to fail once, on its @p nth future hit (1-based), then
 *  self-disarm. Replaces any previous arming (all sites). Throws
 *  kInvalidInput on an unknown site or nth == 0. */
void arm(const std::string& site, uint64_t nth = 1);

/** Arms @p site to fail on every @p every-th hit, persistently, until
 *  disarm(). Replaces any previous arming (all sites). Throws
 *  kInvalidInput on an unknown site or every == 0. */
void armEvery(const std::string& site, uint64_t every);

/** Parses and arms a full fault spec:
 *      <site>[:<nth>|:every=<k>][,<more>...]
 *  Validates the entire spec (known sites, positive counts, no
 *  duplicates, well-formed integers) before arming anything, so a bad
 *  spec leaves the previous arming untouched; on success it replaces
 *  ALL previous arming. Throws kInvalidInput on any parse error. */
void armSpec(const std::string& spec);

/** Cancels all pending arming (idempotent). */
void disarm();

/** True while at least one site is armed. A periodic site counts as
 *  armed until disarm(); a one-shot site only until it fires. */
bool armed();

/** Names of the currently armed sites, sorted (empty when disarmed). */
std::vector<std::string> armedSites();

/** Total fires since process start (across re-arms). */
uint64_t fireCount();

/** Parses SOD2_FAULT (the armSpec grammar) once per process and arms
 *  it. Subsequent calls are no-ops; unset leaves injection disarmed. */
void initFromEnv();

}  // namespace fault
}  // namespace sod2

#endif  // SOD2_SUPPORT_FAULT_INJECTION_H_
