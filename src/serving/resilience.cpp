#include "serving/resilience.h"

#include <algorithm>

namespace sod2 {
namespace serving {

// --- error classification --------------------------------------------

const char*
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::kNone:
        return "none";
      case FailureClass::kRequest:
        return "request";
      case FailureClass::kOverload:
        return "overload";
      case FailureClass::kTransient:
        return "transient";
      case FailureClass::kPersistent:
        return "persistent";
    }
    return "none";
}

FailureClass
failureClassOf(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk:
        return FailureClass::kNone;
      // The request itself is wrong; no amount of retrying or breaker
      // cooldown changes that, and it says nothing about the plan.
      case ErrorCode::kInvalidInput:
      case ErrorCode::kBindFailure:
        return FailureClass::kRequest;
      // Policy sheds: the engine never (fully) ran, so they must not
      // charge the signature's breaker or earn a retry.
      case ErrorCode::kQueueFull:
      case ErrorCode::kDeadlineExceeded:
      case ErrorCode::kShutdown:
      case ErrorCode::kCircuitOpen:
        return FailureClass::kOverload;
      // Environmental: arena pressure can clear after a trim, and
      // plan/cache-publish faults may be one-off (the fault-injection
      // sites model exactly these). Worth a bounded retry; repeated
      // occurrences trip the breaker.
      case ErrorCode::kArenaExhausted:
      case ErrorCode::kInternal:
        return FailureClass::kTransient;
      // A faulting kernel is wrong until the code or model changes;
      // retrying burns the deadline for nothing.
      case ErrorCode::kKernelFailure:
        return FailureClass::kPersistent;
    }
    return FailureClass::kPersistent;
}

bool
breakerCharged(ErrorCode code)
{
    FailureClass c = failureClassOf(code);
    return c == FailureClass::kTransient ||
           c == FailureClass::kPersistent;
}

bool
transientRetryable(ErrorCode code)
{
    return failureClassOf(code) == FailureClass::kTransient;
}

// --- decorrelated-jitter backoff -------------------------------------

RetryBackoff::RetryBackoff(const RetryOptions& opts, uint64_t seed)
    : base_(std::max<long long>(1, opts.baseMicros)),
      cap_(std::max(opts.capMicros, base_)),
      prev_(base_),
      rng_(seed)
{
}

long long
RetryBackoff::nextDelayMicros()
{
    long long hi = std::max(base_, prev_ * 3);
    long long draw = rng_.uniformInt(base_, hi);
    prev_ = std::min(cap_, draw);
    return prev_;
}

// --- per-signature circuit breaker -----------------------------------

const char*
breakerStateName(BreakerState s)
{
    switch (s) {
      case BreakerState::kClosed:
        return "closed";
      case BreakerState::kOpen:
        return "open";
      case BreakerState::kHalfOpen:
        return "half_open";
    }
    return "closed";
}

SignatureScoreboard::SignatureScoreboard(const BreakerOptions& opts)
{
    configure(opts);
}

void
SignatureScoreboard::configure(const BreakerOptions& opts)
{
    opts_ = opts;
    opts_.probesToClose = std::max(1, opts_.probesToClose);
}

SignatureScoreboard::Admission
SignatureScoreboard::admit(uint64_t signature, Clock::time_point now)
{
    if (!enabled())
        return Admission::kAdmit;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it == entries_.end())
        return Admission::kAdmit;
    Entry& e = it->second;
    switch (e.state) {
      case BreakerState::kClosed:
        // Uncleared failures below the threshold: still admitted.
        return Admission::kAdmit;
      case BreakerState::kOpen: {
        auto cooldown =
            std::chrono::milliseconds(opts_.cooldownMillis);
        if (now - e.openedAt < cooldown) {
            ++e.shed;
            return Admission::kShed;
        }
        // Cooldown elapsed: this request becomes the half-open probe.
        e.state = BreakerState::kHalfOpen;
        e.probeSuccesses = 0;
        e.probeInFlight = true;
        return Admission::kProbe;
      }
      case BreakerState::kHalfOpen:
        if (e.probeInFlight) {
            // One probe at a time: concurrent arrivals shed so a still
            // broken plan is re-tested by exactly one request.
            ++e.shed;
            return Admission::kShed;
        }
        e.probeInFlight = true;
        return Admission::kProbe;
    }
    return Admission::kAdmit;
}

void
SignatureScoreboard::onSuccess(uint64_t signature, bool probe,
                               Clock::time_point now)
{
    (void)now;
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it == entries_.end())
        return;
    Entry& e = it->second;
    if (probe && e.state == BreakerState::kHalfOpen) {
        e.probeInFlight = false;
        if (++e.probeSuccesses >= opts_.probesToClose) {
            // Fully healed: erase the row.
            entries_.erase(it);
        }
        return;
    }
    if (e.state == BreakerState::kClosed) {
        // A closed-state success clears the consecutive-failure streak
        // and the row with it.
        entries_.erase(it);
    }
    // A non-probe success while open/half-open is an in-flight
    // straggler admitted before the trip; it proves nothing about the
    // current plan state, so the machine stays put.
}

bool
SignatureScoreboard::onFailure(uint64_t signature, ErrorCode code,
                               bool probe, Clock::time_point now)
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (!breakerCharged(code)) {
        // Policy sheds and malformed requests neither trip nor heal;
        // they only release a held probe slot.
        auto it = entries_.find(signature);
        if (it != entries_.end() && probe)
            it->second.probeInFlight = false;
        return false;
    }
    Entry& e = entries_[signature];
    if (probe && e.state == BreakerState::kHalfOpen) {
        // The probe proved the plan is still broken: re-open and
        // restart the cooldown.
        e.probeInFlight = false;
        e.probeSuccesses = 0;
        e.state = BreakerState::kOpen;
        e.openedAt = now;
        e.consecutive = std::max(e.consecutive, opts_.threshold);
        ++e.trips;
        return true;
    }
    if (e.state == BreakerState::kClosed) {
        if (++e.consecutive >= opts_.threshold) {
            e.state = BreakerState::kOpen;
            e.openedAt = now;
            ++e.trips;
            return true;
        }
        return false;
    }
    // Straggler failure while already open/half-open: already counted
    // toward the trip that opened it (or irrelevant); don't extend the
    // cooldown, or a burst of in-flight failures wedges the breaker.
    return false;
}

void
SignatureScoreboard::onProbeDropped(uint64_t signature)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it == entries_.end())
        return;
    Entry& e = it->second;
    if (e.state == BreakerState::kHalfOpen && e.probeInFlight)
        e.probeInFlight = false;
}

std::vector<BreakerHealth>
SignatureScoreboard::snapshot() const
{
    std::vector<BreakerHealth> rows;
    if (!enabled())
        return rows;
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(entries_.size());
    for (const auto& kv : entries_) {
        BreakerHealth h;
        h.signature = kv.first;
        h.state = kv.second.state;
        h.consecutiveFailures = kv.second.consecutive;
        h.trips = kv.second.trips;
        h.shed = kv.second.shed;
        rows.push_back(h);
    }
    std::sort(rows.begin(), rows.end(),
              [](const BreakerHealth& a, const BreakerHealth& b) {
                  return a.signature < b.signature;
              });
    return rows;
}

void
SignatureScoreboard::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
}

// --- watchdog predicate ----------------------------------------------

bool
workerLooksStuck(bool busy, int64_t busyDeadlineUs, int64_t nowUs,
                 int64_t graceUs)
{
    return busy && busyDeadlineUs > 0 && nowUs > busyDeadlineUs + graceUs;
}

}  // namespace serving
}  // namespace sod2
