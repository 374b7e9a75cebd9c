#ifndef SOD2_SERVING_RESILIENCE_H_
#define SOD2_SERVING_RESILIENCE_H_

/**
 * @file
 * Self-healing primitives for the serving scheduler (DESIGN.md §15).
 *
 * SoD2's premise is that dynamic-shape inference fails *per request*,
 * not per deploy — a shape that cannot bind, a plan that outgrows the
 * arena budget, a kernel that faults. The serving layer must therefore
 * *contain* failures instead of amplifying them: a typed error is
 * first classified (FailureClass), transient classes earn a bounded
 * in-worker retry with decorrelated backoff (RetryBackoff), and a
 * shape signature that keeps failing trips a per-signature circuit
 * breaker (SignatureScoreboard) so further requests of that signature
 * shed fast with kCircuitOpen instead of burning workers — while every
 * other signature keeps serving bit-exact and on time.
 *
 * All state machines here are mutex-private and take no other locks,
 * so they nest safely under both the server mutex and the queue mutex
 * (lock order: server/queue -> scoreboard, never the reverse).
 */

#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/rng.h"
#include "support/status.h"

namespace sod2 {
namespace serving {

// --- error classification --------------------------------------------

/** Reaction class of one typed failure (DESIGN.md §15 table). */
enum class FailureClass {
    kNone,        ///< kOk — not a failure
    kRequest,     ///< the request is malformed; retrying cannot help
    kOverload,    ///< shed by policy (queue, deadline, breaker, stop)
    kTransient,   ///< environmental; may succeed on a bounded retry
    kPersistent,  ///< wrong until code/model changes; never retried
};

/** Stable lowercase name ("request", "transient", ...). */
const char* failureClassName(FailureClass c);

/** Classification of @p code (total over the ErrorCode enum). */
FailureClass failureClassOf(ErrorCode code);

/** True when a failure with @p code counts against its signature's
 *  circuit breaker (transient + persistent classes: the execution
 *  itself failed, as opposed to policy sheds or bad requests). */
bool breakerCharged(ErrorCode code);

/** True when @p code is worth a bounded in-worker retry (transient
 *  class only: arena-budget-after-trim, cache/plan-publish faults). */
bool transientRetryable(ErrorCode code);

// --- options ----------------------------------------------------------

/** Per-signature circuit-breaker tuning. The default threshold of 0
 *  disables breakers entirely. */
struct BreakerOptions {
    /** Consecutive charged failures that trip the breaker (0 = off). */
    int threshold = 0;
    /** Milliseconds an open breaker sheds before allowing a probe. */
    long long cooldownMillis = 250;
    /** Consecutive successful probes that re-close the breaker
     *  (SignatureScoreboard::configure clamps it to at least 1). */
    int probesToClose = 1;

    /** True when breakers are on. */
    bool enabled() const { return threshold > 0; }
};

/** Bounded-retry tuning for transient failures. The default
 *  maxAttempts of 0 disables retries. */
struct RetryOptions {
    /** Per-request retry budget beyond the first attempt (0 = off). */
    int maxAttempts = 0;
    /** Base backoff delay in microseconds (RetryBackoff clamps it to
     *  at least 1). */
    long long baseMicros = 200;
    /** Cap on any single backoff delay in microseconds (RetryBackoff
     *  raises it to the base when below). */
    long long capMicros = 20000;

    /** True when retries are on. */
    bool enabled() const { return maxAttempts > 0; }
};

// --- decorrelated-jitter backoff -------------------------------------

/**
 * Per-request retry-delay generator: the classic "decorrelated jitter"
 * schedule, delay = min(cap, uniform(base, prev * 3)). Successive
 * delays grow stochastically toward the cap, and two requests that
 * fail together draw different delays from their different seeds, so
 * their retries do not stampede the same contended resource in
 * lockstep.
 */
class RetryBackoff
{
  public:
    /** Clamps the base to at least 1 µs and the cap to at least the
     *  base; @p seed decorrelates peers (the server seeds from the
     *  request sequence number). */
    RetryBackoff(const RetryOptions& opts, uint64_t seed);

    /** Next delay in microseconds (always in [base, cap]). */
    long long nextDelayMicros();

  private:
    long long base_;
    long long cap_;
    long long prev_;
    Rng rng_;
};

// --- per-signature circuit breaker -----------------------------------

/** Breaker lifecycle (closed -> open -> half-open -> closed). */
enum class BreakerState {
    kClosed,    ///< healthy: admit everything
    kOpen,      ///< shedding: fail fast with kCircuitOpen
    kHalfOpen,  ///< probing: one request at a time re-tests the plan
};

/** Stable lowercase name ("closed", "open", "half_open"). */
const char* breakerStateName(BreakerState s);

/** One row of SignatureScoreboard::snapshot() (surfaced by
 *  Sod2Server::health()). Only signatures with uncleared failures have
 *  rows; a fully healed signature drops off the board. */
struct BreakerHealth {
    uint64_t signature = 0;
    BreakerState state = BreakerState::kClosed;
    int consecutiveFailures = 0;  ///< charged failures since success
    uint64_t trips = 0;           ///< times this breaker opened
    uint64_t shed = 0;            ///< requests shed while open
};

/**
 * The failure scoreboard: per-shape-signature breaker state machine.
 *
 * Lifecycle per signature:
 *   closed    --[threshold consecutive charged failures]--> open
 *   open      --[cooldown elapses; next admit becomes probe]--> half-open
 *   half-open --[probesToClose probe successes]--> closed (row erased)
 *   half-open --[charged probe failure]--> open (cooldown restarts)
 *
 * Only *charged* codes (breakerCharged) move the machine; policy sheds
 * and malformed requests neither trip nor heal a breaker. A signature
 * has a row from its first uncleared charged failure until a success
 * erases it.
 *
 * Thread-safety: every method is safe to call concurrently; internal
 * state is guarded by one private mutex and no other lock is taken.
 */
class SignatureScoreboard
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Admission verdict for one request of a signature. */
    enum class Admission {
        kAdmit,  ///< breaker closed (or disabled): run normally
        kProbe,  ///< half-open: run solo and report the outcome
        kShed,   ///< open: fail fast with kCircuitOpen
    };

    explicit SignatureScoreboard(const BreakerOptions& opts = {});

    /** Installs @p opts, with probesToClose clamped to at least 1
     *  (server construction). Not thread-safe against concurrent
     *  admits; call before serving starts. */
    void configure(const BreakerOptions& opts);

    /** True when a positive threshold is configured. */
    bool enabled() const { return opts_.enabled(); }

    /** Gate one request of @p signature. kProbe marks a probe as
     *  in-flight: its outcome MUST be reported back via onSuccess /
     *  onFailure / onProbeDropped or the breaker wedges half-open. */
    Admission admit(uint64_t signature,
                    Clock::time_point now = Clock::now());

    /** Reports a completed OK run. Clears the signature's row; a probe
     *  success counts toward probesToClose. */
    void onSuccess(uint64_t signature, bool probe,
                   Clock::time_point now = Clock::now());

    /** Reports a typed failure. Returns true when this failure tripped
     *  the breaker (closed->open, or a probe failure re-opening it).
     *  Uncharged codes only release the probe slot. */
    bool onFailure(uint64_t signature, ErrorCode code, bool probe,
                   Clock::time_point now = Clock::now());

    /** Reports a probe that was dropped without running (queue purge,
     *  in-queue deadline expiry, shutdown): releases the probe slot so
     *  the next admit can re-probe. */
    void onProbeDropped(uint64_t signature);

    /** Rows for every signature with uncleared failures. */
    std::vector<BreakerHealth> snapshot() const;

    /** Drops all per-signature state (blue/green swap installs a new
     *  engine whose plans deserve a clean slate). The server's own
     *  breaker counts (ServerStats) are unaffected. */
    void reset();

  private:
    struct Entry {
        BreakerState state = BreakerState::kClosed;
        int consecutive = 0;      ///< charged failures since success
        int probeSuccesses = 0;   ///< toward probesToClose
        bool probeInFlight = false;
        Clock::time_point openedAt{};
        uint64_t trips = 0;
        uint64_t shed = 0;
    };

    BreakerOptions opts_;  ///< probesToClose >= 1 (configure)
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, Entry> entries_;
};

// --- watchdog predicate ----------------------------------------------

/**
 * True when a worker that is @p busy on a run whose effective deadline
 * was @p busyDeadlineUs (steady-clock microseconds; 0 = no deadline)
 * is overdue by more than @p graceUs at @p nowUs. Pure so the watchdog
 * policy is unit-testable without threads.
 */
bool workerLooksStuck(bool busy, int64_t busyDeadlineUs, int64_t nowUs,
                      int64_t graceUs);

}  // namespace serving
}  // namespace sod2

#endif  // SOD2_SERVING_RESILIENCE_H_
