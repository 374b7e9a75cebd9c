#include "kernels/vector_exp.h"

#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernels/device_profile.h"

namespace sod2 {

#if defined(__x86_64__)

namespace {

// The constants glibc 2.36's expf reads (__exp2f_data in
// sysdeps/ieee754/flt-32/e_exp2f_data.c, EXP2F_TABLE_BITS = 5).

/** tab[i] = bits(2^(i/32)) - (i << 47), so that 2^(k/32) is the double
 *  with bits tab[k % 32] + (k << 47). */
alignas(64) constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
/** 32 / ln 2. */
constexpr double kInvLn2N = 0x1.71547652b82fep+5;
/** 1.5 * 2^52: adding it rounds to an integer held in the low bits. */
constexpr double kShift = 0x1.8p+52;
/** The polynomial for 2^(r/32), highest degree first. */
constexpr double kPoly0 = 0x1.c6af84b912394p-20;
constexpr double kPoly1 = 0x1.ebfce50fac4f3p-13;
constexpr double kPoly2 = 0x1.62e42ff0c52d6p-6;
/** The bits of 88.0f. A lane whose |x| bits reach them (|x| >= 88,
 *  infinities, NaN) is the one glibc sends down its special path; here
 *  it calls std::exp. */
constexpr int32_t kSpecialAbsBits = 0x42b00000;

}  // namespace

// Everything up to pop_options is compiled for AVX-512F. No lambdas
// here, and only pointers and lengths cross into code outside the
// region (DESIGN.md §17). Every intrinsic with an "undefined" source
// operand is used in its maskz form: GCC 12 reports the unmasked forms
// as maybe-uninitialized.
#pragma GCC push_options
#pragma GCC target("avx512f")

namespace {

constexpr __mmask8 kAll8 = 0xFF;

/**
 * exp of eight floats, glibc's __expf_fma step by step in double:
 * kd = fma(32/ln2, x, Shift) rounds x·32/ln2 to the integer k (held in
 * kd's low bits), r = fma(32/ln2, x, -(kd - Shift)) is the remainder,
 * 2^(k/32) comes from the table, and the polynomial in r is fused at the
 * three places the FMA build fuses. Valid for |x| < 88.
 */
inline __m256
exp8(__m256 xf)
{
    const __m512d xd = _mm512_maskz_cvtps_pd(kAll8, xf);
    const __m512d inv_ln2n = _mm512_set1_pd(kInvLn2N);
    const __m512d shift = _mm512_set1_pd(kShift);
    const __m512d kd = _mm512_fmadd_pd(inv_ln2n, xd, shift);
    const __m512d r =
        _mm512_fmsub_pd(inv_ln2n, xd, _mm512_sub_pd(kd, shift));
    // T[k % 32]: index bits 0-3 pick an entry of a 16-entry half, bit 4
    // picks the half.
    const __m512i ki = _mm512_castpd_si512(kd);
    const __m512i* tab = reinterpret_cast<const __m512i*>(kExp2Table);
    const __m512i lo = _mm512_permutex2var_epi64(_mm512_load_si512(tab), ki,
                                                 _mm512_load_si512(tab + 1));
    const __m512i hi = _mm512_permutex2var_epi64(
        _mm512_load_si512(tab + 2), ki, _mm512_load_si512(tab + 3));
    const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
    const __m512i t = _mm512_add_epi64(_mm512_mask_blend_epi64(upper, lo, hi),
                                       _mm512_maskz_slli_epi64(kAll8, ki, 47));
    const __m512d s = _mm512_castsi512_pd(t);
    const __m512d z = _mm512_fmadd_pd(_mm512_set1_pd(kPoly0), r,
                                      _mm512_set1_pd(kPoly1));
    const __m512d r2 = _mm512_mul_pd(r, r);
    __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kPoly2), r,
                                _mm512_set1_pd(1.0));
    y = _mm512_fmadd_pd(z, r2, y);
    y = _mm512_mul_pd(y, s);
    return _mm512_maskz_cvtpd_ps(kAll8, y);
}

/** Lanes of @p x that glibc computes on its special path. */
inline __mmask16
specialLanes(__m512 x)
{
    const __m512i abs_bits = _mm512_and_epi32(_mm512_castps_si512(x),
                                              _mm512_set1_epi32(0x7fffffff));
    return _mm512_cmpge_epi32_mask(abs_bits,
                                   _mm512_set1_epi32(kSpecialAbsBits));
}

/** std::exp(x) in every lane of @p special; @p y elsewhere. */
__m512
expSpecialLanes(__m512 x, __m512 y, __mmask16 special)
{
    alignas(64) float xs[16];
    alignas(64) float ys[16];
    _mm512_store_ps(xs, x);
    _mm512_store_ps(ys, y);
    for (unsigned m = special; m != 0; m &= m - 1) {
        int i = __builtin_ctz(m);
        ys[i] = std::exp(xs[i]);
    }
    return _mm512_load_ps(ys);
}

/** std::exp of the lanes in @p valid (others are don't-care). */
inline __m512
exp16(__m512 x, __mmask16 valid)
{
    const __m512d xpd = _mm512_castps_pd(x);
    const __m256 e0 =
        exp8(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, xpd, 0)));
    const __m256 e1 =
        exp8(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, xpd, 1)));
    const __m512 y = _mm512_castpd_ps(_mm512_maskz_insertf64x4(
        kAll8, _mm512_castpd256_pd512(_mm256_castps_pd(e0)),
        _mm256_castps_pd(e1), 1));
    const __mmask16 special = specialLanes(x) & valid;
    if (special != 0)
        return expSpecialLanes(x, y, special);
    return y;
}

/** Mask of the low min(@p count, 16) lanes. */
inline __mmask16
lanesUpTo(int64_t count)
{
    return count >= 16 ? static_cast<__mmask16>(0xFFFF)
                       : static_cast<__mmask16>((1u << count) - 1);
}

enum class ExpKind { kPlain, kShifted, kSigmoid };

/** y = exp(x), exp(x - shift) or 1 / (1 + exp(-x)), each float
 *  operation the scalar expression's. */
template <ExpKind Kind>
void
expLoop(const float* x, float shift, float* y, int64_t n)
{
    const __m512 shift_v = _mm512_set1_ps(shift);
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512i sign = _mm512_set1_epi32(static_cast<int32_t>(0x80000000u));
    for (int64_t i = 0; i < n; i += 16) {
        const __mmask16 m = lanesUpTo(n - i);
        __m512 v = _mm512_maskz_loadu_ps(m, x + i);
        if (Kind == ExpKind::kShifted)
            v = _mm512_sub_ps(v, shift_v);
        if (Kind == ExpKind::kSigmoid)  // -x flips the sign bit, NaN too
            v = _mm512_castsi512_ps(
                _mm512_xor_epi32(_mm512_castps_si512(v), sign));
        __m512 e = exp16(v, m);
        if (Kind == ExpKind::kSigmoid)
            e = _mm512_div_ps(one, _mm512_add_ps(one, e));
        _mm512_mask_storeu_ps(y + i, m, e);
    }
}

void
expAvx512(const float* x, float* y, int64_t n)
{
    expLoop<ExpKind::kPlain>(x, 0.0f, y, n);
}

void
expShiftedAvx512(const float* x, float shift, float* y, int64_t n)
{
    expLoop<ExpKind::kShifted>(x, shift, y, n);
}

void
sigmoidAvx512(const float* x, float* y, int64_t n)
{
    expLoop<ExpKind::kSigmoid>(x, 0.0f, y, n);
}

}  // namespace

#pragma GCC pop_options

namespace {

/**
 * Compares the vector path with std::exp on every (2^20 + 1)-th bit
 * pattern, on glibc's special-path edges and on the two inputs whose
 * result changes when the reduction is not fused, bit for bit. A libm
 * whose expf is not glibc 2.36's FMA algorithm fails it, and then the
 * scalar path stays.
 */
bool
vectorExpMatchesLibm()
{
    std::vector<float> x;
    for (uint64_t bits = 0; bits <= 0xFFFFFFFFu; bits += (1u << 20) + 1) {
        uint32_t b = static_cast<uint32_t>(bits);
        float f;
        std::memcpy(&f, &b, sizeof f);
        x.push_back(f);
    }
    for (float f : {0.0f, -0.0f, 88.0f, -88.0f, 0x1.5ffffep6f, -0x1.5ffffep6f,
                    0x1.62e42ep6f, 0x1.62e430p6f, -0x1.9fe368p6f,
                    -0x1.9d1d9ep6f, 0x1p-149f, -0x1p-149f, 0x1.04845ep+5f,
                    -0x1.f8cbb2p+5f})
        x.push_back(f);
    std::vector<float> got(x.size());
    expAvx512(x.data(), got.data(), static_cast<int64_t>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
        float want = std::exp(x[i]);
        if (std::memcmp(&want, &got[i], sizeof want) != 0)
            return false;
    }
    return true;
}

}  // namespace

bool
vectorExpEnabled()
{
    static const bool enabled = hostHasAvx512f() && vectorExpMatchesLibm();
    return enabled;
}

void
expBlock(const float* x, float* y, int64_t n)
{
    expAvx512(x, y, n);
}

void
expShiftedBlock(const float* x, float shift, float* y, int64_t n)
{
    expShiftedAvx512(x, shift, y, n);
}

void
sigmoidBlock(const float* x, float* y, int64_t n)
{
    sigmoidAvx512(x, y, n);
}

void
softplusBlock(const float* x, float* y, int64_t n)
{
    expAvx512(x, y, n);
    for (int64_t i = 0; i < n; ++i)
        y[i] = std::log1p(y[i]);
}

#else  // !defined(__x86_64__): no vector path; vectorExpEnabled() is
       // false and callers keep their scalar loops.

bool
vectorExpEnabled()
{
    return false;
}

void
expBlock(const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = std::exp(x[i]);
}

void
expShiftedBlock(const float* x, float shift, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = std::exp(x[i] - shift);
}

void
sigmoidBlock(const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void
softplusBlock(const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = std::log1p(std::exp(x[i]));
}

#endif  // defined(__x86_64__)

}  // namespace sod2
