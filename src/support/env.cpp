#include "support/env.h"

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "support/logging.h"

namespace sod2 {
namespace env {
namespace {

/**
 * Strict integer parse, at least @p min (0 or 1), shared by the readers.
 * atoi/atoll silently accepted trailing garbage ("8x" -> 8) and could
 * not tell "0"/malformed apart from unset, so a typo'd knob was
 * applied half-parsed without a word. strtoll validates the FULL
 * string (leading whitespace and an optional sign are the only
 * decoration allowed), detects overflow via errno, and every rejected
 * value warns once naming the variable before the explicit fallback.
 */
bool
parseAtLeast(const char* name, const char* v, long long min,
             long long* out)
{
    errno = 0;
    char* end = nullptr;
    long long n = std::strtoll(v, &end, 10);
    if (end == v || *end != '\0') {
        SOD2_LOG(kWarn) << name << "=\"" << v
                        << "\" is not an integer; using the default";
        return false;
    }
    if (errno == ERANGE) {
        SOD2_LOG(kWarn) << name << "=\"" << v
                        << "\" overflows; using the default";
        return false;
    }
    if (n < min) {
        SOD2_LOG(kWarn) << name << "=" << n
                        << (min > 0 ? " is not positive" : " is negative")
                        << "; using the default";
        return false;
    }
    *out = n;
    return true;
}

}  // namespace

bool
readFlag(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr && v[0] == '1' && v[1] == '\0';
}

int
readPositiveInt(const char* name, int fallback)
{
    if (const char* v = std::getenv(name)) {
        long long n = 0;
        if (!parseAtLeast(name, v, 1, &n))
            return fallback;
        if (n > INT_MAX) {
            SOD2_LOG(kWarn) << name << "=" << n
                            << " exceeds INT_MAX; using the default";
            return fallback;
        }
        return static_cast<int>(n);
    }
    return fallback;
}

long long
readPositiveInt64(const char* name, long long fallback)
{
    if (const char* v = std::getenv(name)) {
        long long n = 0;
        if (parseAtLeast(name, v, 1, &n))
            return n;
    }
    return fallback;
}

long long
readNonNegativeInt64(const char* name, long long fallback)
{
    if (const char* v = std::getenv(name)) {
        long long n = 0;
        if (parseAtLeast(name, v, 0, &n))
            return n;
    }
    return fallback;
}

bool
validatePlans()
{
    static const bool value = readFlag("SOD2_VALIDATE_PLANS");
    return value;
}

int
numThreads()
{
    static const int value = readPositiveInt("SOD2_NUM_THREADS", 0);
    return value;
}

size_t
arenaBudgetBytes()
{
    static const size_t value =
        static_cast<size_t>(readPositiveInt64("SOD2_ARENA_BUDGET", 0));
    return value;
}

int
benchSamples()
{
    static const int value = readPositiveInt("SOD2_BENCH_SAMPLES", 0);
    return value;
}

int
benchRuns()
{
    static const int value = readPositiveInt("SOD2_BENCH_RUNS", 0);
    return value;
}

int
benchRequests()
{
    static const int value = readPositiveInt("SOD2_BENCH_REQUESTS", 0);
    return value;
}

int
soakRounds()
{
    static const int value = readPositiveInt("SOD2_SOAK_ROUNDS", 0);
    return value;
}

bool
traceEnabled()
{
    static const bool value = readFlag("SOD2_TRACE");
    return value;
}

const std::string&
traceFile()
{
    static const std::string value = readString("SOD2_TRACE_FILE");
    return value;
}

const std::string&
snapshotDir()
{
    static const std::string value = readString("SOD2_SNAPSHOT_DIR");
    return value;
}

bool
snapshotEnabled()
{
    static const bool value =
        readFlag("SOD2_SNAPSHOT") || !snapshotDir().empty();
    return value;
}

std::string
readString(const char* name)
{
    const char* v = std::getenv(name);
    return v ? std::string(v) : std::string();
}

}  // namespace env
}  // namespace sod2
