#ifndef SOD2_KERNELS_CONV_H_
#define SOD2_KERNELS_CONV_H_

/**
 * @file
 * Direct 2-D convolution (NCHW / OIHW) with grouping and a fused
 * bias+activation epilogue — the epilogue is how RDP-enabled fusion
 * attaches trailing elementwise chains to heavy ops without
 * materializing intermediates.
 *
 * conv2d picks its path once per process: an AVX-512 kernel when the
 * CPU has AVX-512F, the portable scalar conv2dReference otherwise.
 * Both produce bit-identical outputs (DESIGN.md §17).
 */

#include <cstdint>

#include "kernels/fused_program.h"
#include "tensor/tensor.h"

namespace sod2 {

/** Tuned convolution configuration (a codegen "version"). */
struct ConvVariant
{
    /** Output channels per parallel task of conv2dReference (the
     *  AVX-512 kernel sizes its tasks by FLOPs). */
    int64_t ocBlock = 8;
    bool parallel = true;
};

/**
 * out[N,O,OH,OW] = conv(x[N,C,H,W], w[O,C/g,kh,kw]) + bias.
 * @p epilogue (optional) runs on each output after bias — the
 * fused-group mechanism of paper §4.2 attached to the heavy op.
 */
void conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
            Tensor* out, int64_t stride, int64_t pad, int64_t group,
            const ConvVariant& variant,
            const FusedEpilogue& epilogue = {});

/**
 * The portable scalar conv2d: the path on hosts without AVX-512, and
 * the reference the AVX-512 kernel matches bit for bit. Each output is
 * bias, then + x * w over (ic, ky, kx) in order with out-of-range taps
 * skipped, then the epilogue per element.
 */
void conv2dReference(const Tensor& x, const Tensor& w, const Tensor* bias,
                     Tensor* out, int64_t stride, int64_t pad,
                     int64_t group, const ConvVariant& variant,
                     const FusedEpilogue& epilogue = {});

/** FLOP count for the cost model. */
double convFlops(const Shape& x, const Shape& w, const Shape& out,
                 int64_t group);

}  // namespace sod2

#endif  // SOD2_KERNELS_CONV_H_
