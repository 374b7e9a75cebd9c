/** Tests for logging/CHECK, thread pool, RNG, and string utilities. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include <cstdlib>

#include "support/env.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/threadpool.h"

namespace sod2 {
namespace {

TEST(Env, ReadFlagParsesExactlyOne)
{
    unsetenv("SOD2_TEST_FLAG");
    EXPECT_FALSE(env::readFlag("SOD2_TEST_FLAG"));
    setenv("SOD2_TEST_FLAG", "1", 1);
    EXPECT_TRUE(env::readFlag("SOD2_TEST_FLAG"));
    setenv("SOD2_TEST_FLAG", "0", 1);
    EXPECT_FALSE(env::readFlag("SOD2_TEST_FLAG"));
    setenv("SOD2_TEST_FLAG", "11", 1);
    EXPECT_FALSE(env::readFlag("SOD2_TEST_FLAG"));
    unsetenv("SOD2_TEST_FLAG");
}

TEST(Env, ReadPositiveIntFallsBack)
{
    unsetenv("SOD2_TEST_INT");
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7);
    setenv("SOD2_TEST_INT", "12", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 12);
    setenv("SOD2_TEST_INT", "-3", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7);
    setenv("SOD2_TEST_INT", "junk", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7);
    unsetenv("SOD2_TEST_INT");
}

TEST(Env, ReadPositiveIntRejectsTrailingGarbage)
{
    // atoi-style prefix parsing would accept all of these as 8; the
    // full-string validation must reject them (typo'd configs fall
    // back loudly instead of silently truncating).
    for (const char* bad : {"8x", "8 2", "8.5", "0x8", " ", "", "+"}) {
        setenv("SOD2_TEST_INT", bad, 1);
        EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7)
            << "value '" << bad << "'";
        EXPECT_EQ(env::readPositiveInt64("SOD2_TEST_INT", 9), 9)
            << "value '" << bad << "'";
    }
    // Leading whitespace and an explicit plus are strtol-legal.
    setenv("SOD2_TEST_INT", " 8", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 8);
    setenv("SOD2_TEST_INT", "+8", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 8);
    unsetenv("SOD2_TEST_INT");
}

TEST(Env, ReadPositiveIntRejectsZeroAndOverflow)
{
    setenv("SOD2_TEST_INT", "0", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7);
    EXPECT_EQ(env::readPositiveInt64("SOD2_TEST_INT", 9), 9);

    // Overflows long long: both readers fall back.
    setenv("SOD2_TEST_INT", "99999999999999999999", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7);
    EXPECT_EQ(env::readPositiveInt64("SOD2_TEST_INT", 9), 9);

    // Fits in long long but not int: the int reader falls back, the
    // 64-bit reader accepts.
    setenv("SOD2_TEST_INT", "3000000000", 1);
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 7);
    EXPECT_EQ(env::readPositiveInt64("SOD2_TEST_INT", 9), 3000000000LL);

    setenv("SOD2_TEST_INT", "2147483647", 1);  // INT_MAX is fine
    EXPECT_EQ(env::readPositiveInt("SOD2_TEST_INT", 7), 2147483647);
    unsetenv("SOD2_TEST_INT");
}

TEST(Env, CachedAccessorsAreOncePerProcess)
{
    // Pin both knobs *before* the first cached query (each gtest case
    // runs in its own process under ctest, so this test owns them).
    setenv("SOD2_VALIDATE_PLANS", "1", 1);
    setenv("SOD2_NUM_THREADS", "3", 1);
    EXPECT_TRUE(env::validatePlans());
    EXPECT_EQ(env::numThreads(), 3);

    // Mutating the environment after the first query is documented to
    // have no effect — the whole point of the once-per-process cache.
    setenv("SOD2_VALIDATE_PLANS", "0", 1);
    setenv("SOD2_NUM_THREADS", "9", 1);
    EXPECT_TRUE(env::validatePlans());
    EXPECT_EQ(env::numThreads(), 3);
    unsetenv("SOD2_VALIDATE_PLANS");
    unsetenv("SOD2_NUM_THREADS");
    EXPECT_TRUE(env::validatePlans());
    EXPECT_EQ(env::numThreads(), 3);
}

TEST(Env, ReadNonNegativeInt64AcceptsZero)
{
    setenv("SOD2_TEST_INT", "0", 1);
    EXPECT_EQ(env::readNonNegativeInt64("SOD2_TEST_INT", 100), 0);
    setenv("SOD2_TEST_INT", "250", 1);
    EXPECT_EQ(env::readNonNegativeInt64("SOD2_TEST_INT", 100), 250);
    for (const char* bad : {"-1", "-250", "off", "5ms", ""}) {
        setenv("SOD2_TEST_INT", bad, 1);
        EXPECT_EQ(env::readNonNegativeInt64("SOD2_TEST_INT", 100), 100)
            << "\"" << bad << "\"";
    }
    unsetenv("SOD2_TEST_INT");
    EXPECT_EQ(env::readNonNegativeInt64("SOD2_TEST_INT", 100), 100);
}

TEST(Logging, CheckThrowsWithContext)
{
    EXPECT_THROW(
        { SOD2_CHECK(false) << "extra detail"; }, Error);
    try {
        SOD2_CHECK_EQ(1, 2);
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("1 vs 2"), std::string::npos);
    }
}

TEST(Logging, CheckPassesSilently)
{
    SOD2_CHECK(true) << "never evaluated";
    SOD2_CHECK_LE(1, 1);
    SOD2_CHECK_GT(2, 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    std::atomic<int64_t> sum{0};
    parallelFor(0, [&](int64_t, int64_t) { sum += 1; });
    EXPECT_EQ(sum.load(), 0);
    parallelFor(1, [&](int64_t b, int64_t e) { sum += e - b; });
    EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, GrainSizeLimitsSplitting)
{
    std::atomic<int> chunks{0};
    parallelFor(
        100,
        [&](int64_t, int64_t) { chunks.fetch_add(1); },
        100);
    EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, LargeReductionMatchesSerial)
{
    const int64_t n = 1 << 18;
    std::vector<int64_t> data(n);
    std::iota(data.begin(), data.end(), 0);
    std::atomic<int64_t> total{0};
    parallelFor(n, [&](int64_t b, int64_t e) {
        int64_t local = 0;
        for (int64_t i = b; i < e; ++i)
            local += data[i];
        total += local;
    });
    EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformFloatInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        float v = rng.uniformFloat();
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(StringUtil, JoinAndBracketed)
{
    std::vector<int> v = {1, 2, 3};
    EXPECT_EQ(join(v, ", "), "1, 2, 3");
    EXPECT_EQ(bracketed(v), "[1, 2, 3]");
    EXPECT_EQ(bracketed(std::vector<int>{}), "[]");
}

TEST(StringUtil, StrFormat)
{
    EXPECT_EQ(strFormat("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(strFormat("%.2f", 1.005), "1.00");
}

TEST(StringUtil, PadTo)
{
    EXPECT_EQ(padTo("ab", 4), "ab  ");
    EXPECT_EQ(padTo("abcdef", 4), "abcd");
}

}  // namespace
}  // namespace sod2
