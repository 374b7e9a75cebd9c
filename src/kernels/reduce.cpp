#include "kernels/reduce.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernels/device_profile.h"
#include "kernels/vector_exp.h"
#include "support/logging.h"
#include "support/threadpool.h"

namespace sod2 {
namespace {

/** Decomposes @p shape into (outer, axis extent, inner) around @p axis. */
struct AxisSplit
{
    int64_t outer = 1;
    int64_t extent = 1;
    int64_t inner = 1;
};

AxisSplit
splitAt(const Shape& shape, int axis)
{
    AxisSplit s;
    for (int i = 0; i < axis; ++i)
        s.outer *= shape.dim(i);
    s.extent = shape.dim(axis);
    for (int i = axis + 1; i < shape.rank(); ++i)
        s.inner *= shape.dim(i);
    return s;
}

// ---- Independent rows --------------------------------------------------
//
// Softmax over the innermost axis, LayerNorm and GlobalAveragePool are
// reductions over contiguous rows. Each row's sum is one chain of float
// adds in k order, as in the reference; the code gets its speed by
// running kInterleave rows' chains side by side (independent adds
// overlap in the pipeline), never by splitting a chain. Elementwise
// passes within a row are vectorized, each element seeing the
// reference's operations.

/** Rows whose sum chains run interleaved; also the rows of one block. */
constexpr int64_t kInterleave = 8;
/** Elements per parallelFor chunk; smaller calls stay on the calling
 *  thread. */
constexpr int64_t kRowChunkElements = 1 << 13;

/**
 * Calls @p block(r0, r1) for consecutive blocks of up to kInterleave
 * rows covering [0, @p rows), spread over the pool in chunks of about
 * kRowChunkElements elements (whole blocks).
 */
void
forEachRowBlock(int64_t rows, int64_t row_len,
                const std::function<void(int64_t, int64_t)>& block)
{
    int64_t blocks = (rows + kInterleave - 1) / kInterleave;
    int64_t block_elems = kInterleave * std::max<int64_t>(1, row_len);
    parallelFor(
        blocks,
        [&](int64_t b0, int64_t b1) {
            for (int64_t b = b0; b < b1; ++b)
                block(b * kInterleave, std::min(rows, (b + 1) * kInterleave));
        },
        std::max<int64_t>(1, kRowChunkElements / block_elems));
}

/** sums[j] = 0.0f + term(j, row_j[0]) + ... + term(j, row_j[len - 1]),
 *  left to right, for the R rows row_j = base + j * stride. */
template <int R, typename Term>
void
sumRowsInterleaved(const float* base, int64_t stride, int64_t len,
                   const Term& term, float* sums)
{
    float acc[R] = {};
    for (int64_t k = 0; k < len; ++k) {
#pragma GCC unroll 8
        for (int j = 0; j < R; ++j)
            acc[j] += term(j, base[j * stride + k]);
    }
#pragma GCC unroll 8
    for (int j = 0; j < R; ++j)
        sums[j] = acc[j];
}

/** sumRowsInterleaved over @p rows <= kInterleave rows. */
template <typename Term>
void
sumRows(const float* base, int64_t stride, int64_t rows, int64_t len,
        const Term& term, float* sums)
{
    if (rows == kInterleave) {
        sumRowsInterleaved<kInterleave>(base, stride, len, term, sums);
        return;
    }
    for (int64_t j = 0; j < rows; ++j) {
        auto row_term = [&](int, float v) {
            return term(static_cast<int>(j), v);
        };
        sumRowsInterleaved<1>(base + j * stride, stride, len, row_term,
                              sums + j);
    }
}

/** The term of a plain sum. */
struct Itself
{
    float operator()(int, float v) const { return v; }
};

/** One softmax row of @p n elements @p stride apart: the reference. */
void
softmaxRowReference(const float* x, float* y, int64_t n, int64_t stride)
{
    float maxv = x[0];
    for (int64_t k = 1; k < n; ++k)
        maxv = std::max(maxv, x[k * stride]);
    float sum = 0.0f;
    for (int64_t k = 0; k < n; ++k) {
        float e = std::exp(x[k * stride] - maxv);
        y[k * stride] = e;
        sum += e;
    }
    float inv = 1.0f / sum;
    for (int64_t k = 0; k < n; ++k)
        y[k * stride] *= inv;
}

}  // namespace

#if defined(__x86_64__)

// Everything up to pop_options is compiled for AVX-512F: the vector
// passes within one row. Only pointers, lengths and floats cross the
// boundary, and there are no lambdas (DESIGN.md §17). Intrinsics whose
// unmasked form takes an "undefined" source are used masked.
#pragma GCC push_options
#pragma GCC target("avx512f")

namespace {

/** Mask of the low min(@p count, 16) lanes. */
inline __mmask16
rowLanes(int64_t count)
{
    return count >= 16 ? static_cast<__mmask16>(0xFFFF)
                       : static_cast<__mmask16>((1u << count) - 1);
}

/**
 * The maximum of x[0 .. n), n >= 1, into @p max, taken lane-wise. Max is
 * exact, so the value equals the reference's left-to-right std::max
 * except for the sign of a zero maximum (see softmaxRows). Returns false
 * when the row holds a NaN or its maximum is not finite; such rows run
 * the reference.
 */
bool
rowMaxFinite(const float* x, int64_t n, float* max)
{
    __m512 acc = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
    __mmask16 nan = 0;
    for (int64_t i = 0; i < n; i += 16) {
        const __mmask16 m = rowLanes(n - i);
        const __m512 v = _mm512_maskz_loadu_ps(m, x + i);
        nan |= _mm512_mask_cmp_ps_mask(m, v, v, _CMP_UNORD_Q);
        acc = _mm512_mask_max_ps(acc, m, acc, v);
    }
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, acc);
    float best = lanes[0];
    for (int j = 1; j < 16; ++j)
        best = std::max(best, lanes[j]);
    *max = best;
    return nan == 0 && std::isfinite(best);
}

/** y[k] *= s for k in [0, n). */
void
scaleRow(float* y, float s, int64_t n)
{
    const __m512 sv = _mm512_set1_ps(s);
    for (int64_t i = 0; i < n; i += 16) {
        const __mmask16 m = rowLanes(n - i);
        _mm512_mask_storeu_ps(
            y + i, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, y + i), sv));
    }
}

/** y[k] = (x[k] - mean) * inv * g[k] + b[k], left to right, each
 *  multiply and add rounded on its own (no FMA). */
void
normalizeRow(const float* x, float mean, float inv, const float* g,
             const float* b, float* y, int64_t n)
{
    const __m512 mv = _mm512_set1_ps(mean);
    const __m512 iv = _mm512_set1_ps(inv);
    for (int64_t i = 0; i < n; i += 16) {
        const __mmask16 m = rowLanes(n - i);
        __m512 v = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, x + i), mv);
        v = _mm512_mul_ps(v, iv);
        v = _mm512_mul_ps(v, _mm512_maskz_loadu_ps(m, g + i));
        v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, b + i));
        _mm512_mask_storeu_ps(y + i, m, v);
    }
}

}  // namespace

#pragma GCC pop_options

namespace {

/**
 * Softmax rows [r0, r1) (one block) of @p n >= 1 contiguous elements.
 * Each row: lane-wise max, y = exp(x - max) through the vector expf,
 * the sum chain (interleaved with the block's other rows), y *= 1/sum.
 * A zero maximum may come out as +0 where the reference's left-to-right
 * max gives -0 or back; x - max then differs only for x = -0 (-0 - -0 is
 * +0, -0 - +0 is -0), and exp maps both to 1, so no output bit changes.
 * Rows with a NaN or a non-finite maximum run softmaxRowReference.
 */
void
softmaxRows(const float* src, float* dst, int64_t n, int64_t r0, int64_t r1)
{
    bool reference[kInterleave] = {};
    for (int64_t r = r0; r < r1; ++r) {
        const float* x = src + r * n;
        float* y = dst + r * n;
        float max = 0.0f;
        reference[r - r0] = !rowMaxFinite(x, n, &max);
        if (reference[r - r0])
            softmaxRowReference(x, y, n, 1);
        else
            expShiftedBlock(x, max, y, n);
    }
    // Reference rows are summed too (their output is final); the sums
    // are not used.
    float sums[kInterleave] = {};
    sumRows(dst + r0 * n, n, r1 - r0, n, Itself{}, sums);
    for (int64_t r = r0; r < r1; ++r)
        if (!reference[r - r0])
            scaleRow(dst + r * n, 1.0f / sums[r - r0], n);
}

/** LayerNorm rows [r0, r1) (one block) of @p d elements. */
void
layerNormRows(const float* px, const float* pg, const float* pb, float eps,
              float* po, int64_t d, int64_t r0, int64_t r1)
{
    const float* x = px + r0 * d;
    int64_t rows = r1 - r0;
    float mean[kInterleave] = {};
    float var[kInterleave] = {};
    sumRows(x, d, rows, d, Itself{}, mean);
    for (int64_t j = 0; j < rows; ++j)
        mean[j] /= static_cast<float>(d);
    auto squared_deviation = [&](int j, float v) {
        float c = v - mean[j];
        return c * c;
    };
    sumRows(x, d, rows, d, squared_deviation, var);
    for (int64_t j = 0; j < rows; ++j) {
        var[j] /= static_cast<float>(d);
        float inv = 1.0f / std::sqrt(var[j] + eps);
        normalizeRow(x + j * d, mean[j], inv, pg, pb, po + (r0 + j) * d, d);
    }
}

}  // namespace

#endif  // defined(__x86_64__)

void
reduce(const std::string& op, const Tensor& in,
       const std::vector<int64_t>& axes, bool keepdims, Tensor* out)
{
    (void)keepdims;  // out's shape already encodes it
    const Shape& shape = in.shape();
    std::vector<bool> reduced(shape.rank(), axes.empty());
    for (int64_t a : axes)
        reduced[normalizeAxis(static_cast<int>(a), shape.rank())] = true;

    int64_t out_n = out->numElements();
    // Strides mapping input coordinates onto the packed output index.
    auto in_strides = shape.strides();
    std::vector<int64_t> out_map(shape.rank(), 0);
    {
        int64_t stride = 1;
        for (int i = shape.rank() - 1; i >= 0; --i) {
            if (!reduced[i]) {
                out_map[i] = stride;
                stride *= shape.dim(i);
            }
        }
    }

    bool is_mean = op == "ReduceMean";
    bool is_sum = op == "ReduceSum" || is_mean;
    bool is_max = op == "ReduceMax";
    bool is_min = op == "ReduceMin";
    SOD2_CHECK(is_sum || is_max || is_min) << "unknown reduce op " << op;

    const float* src = in.data<float>();
    float* dst = out->data<float>();
    float init = is_sum ? 0.0f
                        : (is_max ? -std::numeric_limits<float>::infinity()
                                  : std::numeric_limits<float>::infinity());
    for (int64_t i = 0; i < out_n; ++i)
        dst[i] = init;

    int64_t n = shape.numElements();
    int64_t count = out_n > 0 ? n / out_n : 1;
    for (int64_t i = 0; i < n; ++i) {
        // Decode the output slot for input element i.
        int64_t rem = i, oi = 0;
        for (int d = 0; d < shape.rank(); ++d) {
            int64_t coord = in_strides[d] ? rem / in_strides[d] : 0;
            rem -= coord * in_strides[d];
            oi += coord * out_map[d];
        }
        if (is_sum)
            dst[oi] += src[i];
        else if (is_max)
            dst[oi] = std::max(dst[oi], src[i]);
        else
            dst[oi] = std::min(dst[oi], src[i]);
    }
    if (is_mean) {
        for (int64_t i = 0; i < out_n; ++i)
            dst[i] /= static_cast<float>(count);
    }
}

void
argMax(const Tensor& in, int axis, bool keepdims, Tensor* out)
{
    (void)keepdims;
    axis = normalizeAxis(axis, in.shape().rank());
    AxisSplit s = splitAt(in.shape(), axis);
    const float* src = in.data<float>();
    int64_t* dst = out->data<int64_t>();
    for (int64_t o = 0; o < s.outer; ++o) {
        for (int64_t i = 0; i < s.inner; ++i) {
            const float* base = src + o * s.extent * s.inner + i;
            int64_t best = 0;
            float bestv = base[0];
            for (int64_t k = 1; k < s.extent; ++k) {
                float v = base[k * s.inner];
                if (v > bestv) {
                    bestv = v;
                    best = k;
                }
            }
            dst[o * s.inner + i] = best;
        }
    }
}

void
softmaxReference(const Tensor& in, int axis, Tensor* out)
{
    axis = normalizeAxis(axis, in.shape().rank());
    AxisSplit s = splitAt(in.shape(), axis);
    const float* src = in.data<float>();
    float* dst = out->data<float>();
    parallelFor(
        s.outer * s.inner,
        [&](int64_t lo, int64_t hi) {
            for (int64_t t = lo; t < hi; ++t) {
                int64_t o = t / s.inner;
                int64_t i = t % s.inner;
                softmaxRowReference(src + o * s.extent * s.inner + i,
                                    dst + o * s.extent * s.inner + i,
                                    s.extent, s.inner);
            }
        },
        16);
}

void
softmax(const Tensor& in, int axis, Tensor* out)
{
#if defined(__x86_64__)
    axis = normalizeAxis(axis, in.shape().rank());
    AxisSplit s = splitAt(in.shape(), axis);
    if (s.inner == 1 && s.extent > 0 && vectorExpEnabled()) {
        const float* src = in.data<float>();
        float* dst = out->data<float>();
        forEachRowBlock(s.outer, s.extent, [&](int64_t r0, int64_t r1) {
            softmaxRows(src, dst, s.extent, r0, r1);
        });
        return;
    }
#endif
    softmaxReference(in, axis, out);
}

void
layerNormReference(const Tensor& x, const Tensor& scale,
                   const Tensor& bias, float eps, Tensor* out)
{
    const Shape& shape = x.shape();
    int64_t d = shape.dimAt(-1);
    int64_t rows = shape.numElements() / d;
    SOD2_CHECK_EQ(scale.numElements(), d);
    SOD2_CHECK_EQ(bias.numElements(), d);
    const float* px = x.data<float>();
    const float* pg = scale.data<float>();
    const float* pb = bias.data<float>();
    float* po = out->data<float>();
    parallelFor(
        rows,
        [&](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
                const float* row = px + r * d;
                float* orow = po + r * d;
                float mean = 0.0f;
                for (int64_t i = 0; i < d; ++i)
                    mean += row[i];
                mean /= static_cast<float>(d);
                float var = 0.0f;
                for (int64_t i = 0; i < d; ++i) {
                    float c = row[i] - mean;
                    var += c * c;
                }
                var /= static_cast<float>(d);
                float inv = 1.0f / std::sqrt(var + eps);
                for (int64_t i = 0; i < d; ++i)
                    orow[i] = (row[i] - mean) * inv * pg[i] + pb[i];
            }
        },
        8);
}

void
layerNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
          float eps, Tensor* out)
{
#if defined(__x86_64__)
    if (hostHasAvx512f()) {
        int64_t d = x.shape().dimAt(-1);
        SOD2_CHECK_EQ(scale.numElements(), d);
        SOD2_CHECK_EQ(bias.numElements(), d);
        const float* px = x.data<float>();
        const float* pg = scale.data<float>();
        const float* pb = bias.data<float>();
        float* po = out->data<float>();
        forEachRowBlock(x.numElements() / d, d,
                        [&](int64_t r0, int64_t r1) {
                            layerNormRows(px, pg, pb, eps, po, d, r0, r1);
                        });
        return;
    }
#endif
    layerNormReference(x, scale, bias, eps, out);
}

void
batchNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
          const Tensor& mean, const Tensor& var, float eps, Tensor* out)
{
    const Shape& shape = x.shape();
    SOD2_CHECK_GE(shape.rank(), 2);
    int64_t n = shape.dim(0);
    int64_t c = shape.dim(1);
    int64_t spatial = shape.numElements() / (n * c);
    const float* px = x.data<float>();
    const float* pg = scale.data<float>();
    const float* pb = bias.data<float>();
    const float* pm = mean.data<float>();
    const float* pv = var.data<float>();
    float* po = out->data<float>();
    parallelFor(n * c, [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            int64_t ch = t % c;
            float inv = 1.0f / std::sqrt(pv[ch] + eps);
            float g = pg[ch] * inv;
            float b0 = pb[ch] - pm[ch] * g;
            const float* base = px + t * spatial;
            float* obase = po + t * spatial;
            for (int64_t i = 0; i < spatial; ++i)
                obase[i] = base[i] * g + b0;
        }
    });
}

void
groupNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
          int64_t groups, float eps, Tensor* out)
{
    const Shape& shape = x.shape();
    SOD2_CHECK_GE(shape.rank(), 2);
    int64_t n = shape.dim(0);
    int64_t c = shape.dim(1);
    SOD2_CHECK_EQ(c % groups, 0) << "channels not divisible by groups";
    int64_t spatial = shape.numElements() / (n * c);
    int64_t cg = c / groups;
    int64_t group_elems = cg * spatial;
    const float* px = x.data<float>();
    const float* pg = scale.data<float>();
    const float* pb = bias.data<float>();
    float* po = out->data<float>();
    parallelFor(n * groups, [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            int64_t ni = t / groups;
            int64_t gi = t % groups;
            const float* base =
                px + (ni * c + gi * cg) * spatial;
            float* obase = po + (ni * c + gi * cg) * spatial;
            double mean = 0.0;
            for (int64_t i = 0; i < group_elems; ++i)
                mean += base[i];
            mean /= static_cast<double>(group_elems);
            double var = 0.0;
            for (int64_t i = 0; i < group_elems; ++i) {
                double d = base[i] - mean;
                var += d * d;
            }
            var /= static_cast<double>(group_elems);
            float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
            for (int64_t ch = 0; ch < cg; ++ch) {
                float g = pg[gi * cg + ch] * inv;
                float b0 = pb[gi * cg + ch] -
                           static_cast<float>(mean) * g;
                for (int64_t i = 0; i < spatial; ++i)
                    obase[ch * spatial + i] =
                        base[ch * spatial + i] * g + b0;
            }
        }
    });
}

void
pool2d(const Tensor& x, Tensor* out, int64_t kernel, int64_t stride,
       int64_t pad, bool is_max)
{
    const Shape& xs = x.shape();
    const Shape& os = out->shape();
    int64_t n = xs.dim(0), c = xs.dim(1), h = xs.dim(2), w = xs.dim(3);
    int64_t oh = os.dim(2), ow = os.dim(3);
    const float* px = x.data<float>();
    float* po = out->data<float>();
    parallelFor(n * c, [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            const float* base = px + t * h * w;
            float* obase = po + t * oh * ow;
            for (int64_t oy = 0; oy < oh; ++oy) {
                for (int64_t ox = 0; ox < ow; ++ox) {
                    float acc = is_max
                                    ? -std::numeric_limits<float>::infinity()
                                    : 0.0f;
                    int64_t cnt = 0;
                    for (int64_t ky = 0; ky < kernel; ++ky) {
                        int64_t iy = oy * stride - pad + ky;
                        if (iy < 0 || iy >= h)
                            continue;
                        for (int64_t kx = 0; kx < kernel; ++kx) {
                            int64_t ix = ox * stride - pad + kx;
                            if (ix < 0 || ix >= w)
                                continue;
                            float v = base[iy * w + ix];
                            if (is_max)
                                acc = std::max(acc, v);
                            else
                                acc += v;
                            ++cnt;
                        }
                    }
                    obase[oy * ow + ox] =
                        is_max ? acc
                               : (cnt ? acc / static_cast<float>(cnt)
                                      : 0.0f);
                }
            }
        }
    });
}

void
globalAvgPoolReference(const Tensor& x, Tensor* out)
{
    const Shape& xs = x.shape();
    int64_t nc = xs.dim(0) * xs.dim(1);
    int64_t spatial = xs.dim(2) * xs.dim(3);
    const float* px = x.data<float>();
    float* po = out->data<float>();
    for (int64_t t = 0; t < nc; ++t) {
        float sum = 0.0f;
        const float* base = px + t * spatial;
        for (int64_t i = 0; i < spatial; ++i)
            sum += base[i];
        po[t] = sum / static_cast<float>(spatial);
    }
}

void
globalAvgPool(const Tensor& x, Tensor* out)
{
    const Shape& xs = x.shape();
    int64_t nc = xs.dim(0) * xs.dim(1);
    int64_t spatial = xs.dim(2) * xs.dim(3);
    const float* px = x.data<float>();
    float* po = out->data<float>();
    forEachRowBlock(nc, spatial, [&](int64_t r0, int64_t r1) {
        sumRows(px + r0 * spatial, spatial, r1 - r0, spatial, Itself{},
                po + r0);
        for (int64_t t = r0; t < r1; ++t)
            po[t] /= static_cast<float>(spatial);
    });
}

}  // namespace sod2
