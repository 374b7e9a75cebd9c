#ifndef SOD2_KERNELS_DATA_MOVEMENT_H_
#define SOD2_KERNELS_DATA_MOVEMENT_H_

/**
 * @file
 * Data-movement kernels: transpose, slice, concat, split, gather,
 * expand, pad, tile, resize, one-hot, eye-like, range, top-k, and the
 * execution-determined ops (NonZero, NonMaxSuppression) that must
 * allocate their own outputs.
 *
 * The layout ops (transpose, slice, concat, split, expand, tile,
 * resize) describe their copy as one strided box and run stridedCopy.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sod2 {

/**
 * Copies a box of @p dims elements, each @p elem_size bytes, from
 * @p src to @p dst. Element (i_0, ..., i_{r-1}) is read at element
 * offset sum(i_d * src_strides[d]) from @p src and written at
 * sum(i_d * dst_strides[d]) from @p dst. Strides count elements and may
 * be negative; a source stride of 0 broadcasts. Destination elements
 * must not overlap each other or the source.
 *
 * Extent-1 dims are dropped and dims contiguous on both sides merged;
 * unit-stride innermost runs are copied with memcpy, and the outer dims
 * are walked with an odometer (no divide per element, no allocation).
 * Copies large enough to give every chunk about 128 KiB are split by
 * rows across the thread pool.
 */
void stridedCopy(void* dst, const std::vector<int64_t>& dst_strides,
                 const void* src, const std::vector<int64_t>& src_strides,
                 const std::vector<int64_t>& dims, size_t elem_size);

/**
 * stridedCopy's contract as a per-element loop that finds each
 * element's offsets with a divide and a modulo per dim: the
 * bit-identity reference for tests.
 */
void stridedCopyReference(void* dst, const std::vector<int64_t>& dst_strides,
                          const void* src,
                          const std::vector<int64_t>& src_strides,
                          const std::vector<int64_t>& dims,
                          size_t elem_size);

void transpose(const Tensor& in, const std::vector<int64_t>& perm,
               Tensor* out);

/** Strided slice; bounds are already-normalized per-axis triples. */
void slice(const Tensor& in, const std::vector<int64_t>& starts,
           const std::vector<int64_t>& ends,
           const std::vector<int64_t>& axes,
           const std::vector<int64_t>& steps, Tensor* out);

void concat(const std::vector<Tensor>& ins, int axis, Tensor* out);

void split(const Tensor& in, int axis, std::vector<Tensor>* outs);

void gather(const Tensor& in, const Tensor& indices, int axis, Tensor* out);

/** Broadcast-copy @p in into @p out (Expand). */
void expandTo(const Tensor& in, Tensor* out);

/** Zero/value 2-D padding on NCHW. */
void pad2d(const Tensor& in, int64_t pad, float value, Tensor* out);

void tile(const Tensor& in, const std::vector<int64_t>& repeats,
          Tensor* out);

/** Nearest-neighbor upsampling by integer factors on NCHW (any dtype). */
void resizeNearest(const Tensor& in, int64_t sh, int64_t sw, Tensor* out);

void eyeLike(const Tensor& in, Tensor* out);

void oneHot(const Tensor& indices, int64_t depth, Tensor* out);

/** arange(start, limit, delta) into pre-sized @p out (i64 or f32). */
void rangeFill(double start, double delta, Tensor* out);

/** Top-k along @p axis; outputs pre-sized with extent k. */
void topK(const Tensor& in, int64_t k, int axis, Tensor* values,
          Tensor* indices);

/** EDO: returns [rank, count] indices of non-zero elements. */
Tensor nonZero(const Tensor& in);

/** EDO: greedy NMS over boxes[N,4]/scores[N]; returns selected indices. */
Tensor nonMaxSuppression(const Tensor& boxes, const Tensor& scores,
                         float iou_threshold, float score_threshold);

}  // namespace sod2

#endif  // SOD2_KERNELS_DATA_MOVEMENT_H_
