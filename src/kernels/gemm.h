#ifndef SOD2_KERNELS_GEMM_H_
#define SOD2_KERNELS_GEMM_H_

/**
 * @file
 * Cache-blocked GEMM with selectable tiling variants.
 *
 * Multi-version code generation (paper §4.4.2) keys on matrix *shape
 * class*: the auto-tuner emits distinct tile/parallelization settings for
 * fat (m >> k), regular, and skinny (m small) problems. GemmVariant is
 * the artifact a "version" compiles down to in this reproduction.
 */

#include <cstdint>
#include <string>

#include "kernels/fused_program.h"
#include "tensor/tensor.h"

namespace sod2 {

/** One tuned GEMM configuration (a "code version"). */
struct GemmVariant
{
    int64_t tileM = 64;
    int64_t tileN = 64;
    int64_t tileK = 64;
    bool parallel = true;  ///< parallelize over M tiles

    std::string toString() const;
};

/**
 * C[m,n] = A[m,k] * B[k,n] (+ bias[n] when non-null), fp32 row-major.
 * @p variant selects blocking; correctness is variant-independent.
 * Runs the AVX-512 micro-kernel when the CPU has AVX-512F and
 * gemmF32Reference otherwise; the two are bit-identical.
 */
void gemmF32(const float* a, const float* b, float* c, int64_t m, int64_t n,
             int64_t k, const GemmVariant& variant,
             const float* bias = nullptr);

/**
 * ONNX MatMul on >=2-D tensors with broadcast batch dims.
 * @p out must be pre-allocated with the broadcasted result shape.
 * @p epilogue (optional) runs on each output, indexed by its flat
 * position in @p out.
 */
void matmul(const Tensor& a, const Tensor& b, Tensor* out,
            const GemmVariant& variant,
            const FusedEpilogue& epilogue = {});

/**
 * The portable scalar GEMM (blocked by the variant's tiles): the path
 * on hosts without AVX-512 and the bit-identity reference. Each output
 * is bias[j] or 0, then + a * b over k in order.
 */
void gemmF32Reference(const float* a, const float* b, float* c, int64_t m,
                      int64_t n, int64_t k, const GemmVariant& variant,
                      const float* bias = nullptr);

/** matmul over gemmF32Reference, then the epilogue per element. */
void matmulReference(const Tensor& a, const Tensor& b, Tensor* out,
                     const GemmVariant& variant,
                     const FusedEpilogue& epilogue = {});

/** FLOP count of a matmul with the given operand shapes (2*m*n*k*batch). */
double matmulFlops(const Shape& a, const Shape& b);

}  // namespace sod2

#endif  // SOD2_KERNELS_GEMM_H_
