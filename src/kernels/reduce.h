#ifndef SOD2_KERNELS_REDUCE_H_
#define SOD2_KERNELS_REDUCE_H_

/**
 * @file
 * Reductions and normalization kernels: Reduce{Mean,Sum,Max,Min},
 * ArgMax, Softmax, LayerNormalization, BatchNormalization, and the
 * pooling family.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace sod2 {

/** Generic reduction ("ReduceMean"/"ReduceSum"/"ReduceMax"/"ReduceMin")
 *  over @p axes with keepdims semantics baked into @p out's shape. */
void reduce(const std::string& op, const Tensor& in,
            const std::vector<int64_t>& axes, bool keepdims, Tensor* out);

/** Index of the maximum along @p axis (int64 output). */
void argMax(const Tensor& in, int axis, bool keepdims, Tensor* out);

/**
 * Numerically stable softmax along @p axis. Over the innermost axis,
 * with the vector expf enabled (kernels/vector_exp.h), rows run the
 * vectorized row path; every other case runs softmaxReference. Outputs
 * are bit-identical either way.
 */
void softmax(const Tensor& in, int axis, Tensor* out);
/** The scalar softmax: per row, left-to-right max, std::exp, sum, scale. */
void softmaxReference(const Tensor& in, int axis, Tensor* out);

/** LayerNorm over the last dimension with per-channel scale/bias. On
 *  AVX-512F hosts it runs the vectorized row path, bit-identical to
 *  layerNormReference. */
void layerNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
               float eps, Tensor* out);
/** The scalar LayerNorm loop. */
void layerNormReference(const Tensor& x, const Tensor& scale,
                        const Tensor& bias, float eps, Tensor* out);

/** Inference BatchNorm on NCHW input (folded running stats). */
void batchNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
               const Tensor& mean, const Tensor& var, float eps,
               Tensor* out);

/** GroupNorm on NCHW: normalize each of @p groups channel groups over
 *  (channels-in-group x spatial), then per-channel scale/bias. */
void groupNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
               int64_t groups, float eps, Tensor* out);

/** Max/average pooling on NCHW. @p is_max selects the reduction. */
void pool2d(const Tensor& x, Tensor* out, int64_t kernel, int64_t stride,
            int64_t pad, bool is_max);

/** Global average pool NCHW -> [N, C, 1, 1]: each (n, c) plane's sum
 *  in order, several planes interleaved, split across the pool. */
void globalAvgPool(const Tensor& x, Tensor* out);
/** The serial global average pool loop. */
void globalAvgPoolReference(const Tensor& x, Tensor* out);

}  // namespace sod2

#endif  // SOD2_KERNELS_REDUCE_H_
