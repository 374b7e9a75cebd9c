#ifndef SOD2_KERNELS_VECTOR_EXP_H_
#define SOD2_KERNELS_VECTOR_EXP_H_

/**
 * @file
 * A 16-lane AVX-512 expf that returns exactly what std::exp(float)
 * returns, and the exp-based block functions built on it (Softmax's
 * numerator, the Exp, Sigmoid and Softplus ops).
 *
 * The vector path replays glibc 2.36's `__expf_fma` (the
 * optimized-routines algorithm): a reduction against a 32-entry
 * 2^(i/32) table and a degree-3 polynomial, in double, fused where the
 * FMA build fuses. Lanes with |x| >= 88 or NaN call std::exp.
 *
 * The block functions run that vector path, so callers select them
 * with vectorExpEnabled(): AVX-512F plus a once-per-process self-check
 * against std::exp. Where it is false, callers keep their scalar loops
 * over std::exp, so results never depend on which path ran (DESIGN.md
 * §17). The tests and the exhaustive comparison call the block
 * functions directly under hostHasAvx512f().
 */

#include <cstdint>

namespace sod2 {

/** True when the vector expf is in use: the host has AVX-512F and the
 *  self-check against std::exp passed. Decided once per process, at
 *  the first call. */
bool vectorExpEnabled();

/** y[i] = std::exp(x[i]) for i in [0, n). @p y may equal @p x. */
void expBlock(const float* x, float* y, int64_t n);

/** y[i] = std::exp(x[i] - shift), the float difference rounded first
 *  (Softmax's numerator). @p y may equal @p x. */
void expShiftedBlock(const float* x, float shift, float* y, int64_t n);

/** y[i] = 1.0f / (1.0f + std::exp(-x[i])). @p y may equal @p x. */
void sigmoidBlock(const float* x, float* y, int64_t n);

/** y[i] = std::log1p(std::exp(x[i])); log1p stays scalar. @p y may
 *  equal @p x. */
void softplusBlock(const float* x, float* y, int64_t n);

}  // namespace sod2

#endif  // SOD2_KERNELS_VECTOR_EXP_H_
