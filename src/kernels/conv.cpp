#include "kernels/conv.h"

#include <algorithm>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernels/device_profile.h"
#include "support/logging.h"
#include "support/threadpool.h"

namespace sod2 {

void
conv2dReference(const Tensor& x, const Tensor& w, const Tensor* bias,
                Tensor* out, int64_t stride, int64_t pad, int64_t group,
                const ConvVariant& v, const FusedEpilogue& epilogue)
{
    const Shape& xs = x.shape();
    const Shape& ws = w.shape();
    const Shape& os = out->shape();
    SOD2_CHECK_EQ(xs.rank(), 4);
    SOD2_CHECK_EQ(ws.rank(), 4);
    int64_t n = xs.dim(0), c = xs.dim(1), h = xs.dim(2), wi = xs.dim(3);
    int64_t oc = ws.dim(0), icg = ws.dim(1), kh = ws.dim(2), kw = ws.dim(3);
    int64_t oh = os.dim(2), ow = os.dim(3);
    SOD2_CHECK_EQ(c, icg * group) << "conv channel/group mismatch";
    SOD2_CHECK_EQ(oc % group, 0);
    int64_t ocg = oc / group;

    const float* px = x.data<float>();
    const float* pw = w.data<float>();
    const float* pb = bias ? bias->data<float>() : nullptr;
    float* po = out->data<float>();

    auto task = [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
            int64_t ni = t / oc;
            int64_t oci = t % oc;
            int64_t g = oci / ocg;
            const float* wbase = pw + oci * icg * kh * kw;
            float* obase = po + (ni * oc + oci) * oh * ow;
            const float* xbase = px + (ni * c + g * icg) * h * wi;
            float b0 = pb ? pb[oci] : 0.0f;
            for (int64_t oy = 0; oy < oh; ++oy) {
                for (int64_t ox = 0; ox < ow; ++ox) {
                    float acc = b0;
                    int64_t iy0 = oy * stride - pad;
                    int64_t ix0 = ox * stride - pad;
                    for (int64_t ic = 0; ic < icg; ++ic) {
                        const float* xch = xbase + ic * h * wi;
                        const float* wch = wbase + ic * kh * kw;
                        for (int64_t ky = 0; ky < kh; ++ky) {
                            int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            const float* xrow = xch + iy * wi;
                            const float* wrow = wch + ky * kw;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                                int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wi)
                                    continue;
                                acc += xrow[ix] * wrow[kx];
                            }
                        }
                    }
                    if (epilogue) {
                        int64_t flat = (ni * oc + oci) * oh * ow +
                                       oy * ow + ox;
                        acc = epilogue.apply(acc, flat);
                    }
                    obase[oy * ow + ox] = acc;
                }
            }
        }
    };

    int64_t tasks = n * oc;
    if (v.parallel && tasks > 1) {
        parallelFor(tasks, task, std::max<int64_t>(1, v.ocBlock));
    } else {
        task(0, tasks);
    }
}

#if defined(__x86_64__)

namespace {

/** Output channels per vector: one AVX-512 register of f32. */
constexpr int64_t kLanes = 16;
/** Output pixels of one row register-blocked together. */
constexpr int kPixelBlock = 14;
/** Output pixels per row segment; its buffers live on the stack. */
constexpr int64_t kSegment = 128;
/** Work per parallelFor chunk; smaller convs stay on the calling
 *  thread. */
constexpr double kChunkFlops = 256e3;

/**
 * One conv2d call as the AVX-512 kernel sees it. Tasks are output rows
 * of one 16-channel block: (image, group, channel block, oy), oy
 * fastest. Weights are packed per call, per block, as
 * [ic][ky][kx][16 channels], zero-filled past the group's last channel,
 * followed by the block's 16 biases.
 */
struct ConvProblem
{
    int64_t c, h, wi, oc, icg, kh, kw, oh, ow, ocg, group, stride, pad;
    int64_t blocks;       ///< channel blocks per group
    int64_t blockFloats;  ///< packed floats per block
    const float* x;
    const float* packed;
    float* out;
    const FusedEpilogue* epilogue;
};

}  // namespace

// Everything up to pop_options is compiled for AVX-512F. No lambdas
// here (they would not inherit the target), and no __m512 crosses into
// code outside the region.
#pragma GCC push_options
#pragma GCC target("avx512f")

namespace {

/**
 * P output pixels, kLanes channels each, that share one kx tap range:
 * pixel p reads input column ix0 + p * stride + kx. Accumulates bias,
 * then + x * w over (ic, ky, kx) in order, and stores pixel-major to
 * @p acc_out (P x kLanes).
 */
template <int P>
void
convPixels(const ConvProblem& p, const float* xg, const float* wb,
           int64_t iy0, int64_t ky0, int64_t ky1, int64_t ix0, int64_t kx0,
           int64_t kx1, float* acc_out)
{
    const int64_t s = p.stride;
    __m512 acc[P];
    const __m512 bias = _mm512_loadu_ps(wb + p.icg * p.kh * p.kw * kLanes);
#pragma GCC unroll 16
    for (int i = 0; i < P; ++i)
        acc[i] = bias;
    for (int64_t ic = 0; ic < p.icg; ++ic) {
        const float* xc = xg + ic * p.h * p.wi;
        const float* wc = wb + ic * p.kh * p.kw * kLanes;
        for (int64_t ky = ky0; ky < ky1; ++ky) {
            const float* xr = xc + (iy0 + ky) * p.wi;
            const float* wr = wc + ky * p.kw * kLanes;
            for (int64_t kx = kx0; kx < kx1; ++kx) {
                const __m512 wv = _mm512_loadu_ps(wr + kx * kLanes);
                const float* xp = xr + (ix0 + kx);
#pragma GCC unroll 16
                for (int i = 0; i < P; ++i)
                    acc[i] = _mm512_add_ps(
                        acc[i], _mm512_mul_ps(_mm512_set1_ps(xp[i * s]), wv));
            }
        }
    }
#pragma GCC unroll 16
    for (int i = 0; i < P; ++i)
        _mm512_storeu_ps(acc_out + i * kLanes, acc[i]);
}

/** convPixels for a run-time pixel count 1..kPixelBlock. */
void
convPixelRun(int count, const ConvProblem& p, const float* xg,
             const float* wb, int64_t iy0, int64_t ky0, int64_t ky1,
             int64_t ix0, int64_t kx0, int64_t kx1, float* acc_out)
{
    switch (count) {
#define SOD2_CONV_PIXELS(P)                                               \
      case P:                                                             \
        return convPixels<P>(p, xg, wb, iy0, ky0, ky1, ix0, kx0, kx1,     \
                             acc_out);
      SOD2_CONV_PIXELS(1) SOD2_CONV_PIXELS(2) SOD2_CONV_PIXELS(3)
      SOD2_CONV_PIXELS(4) SOD2_CONV_PIXELS(5) SOD2_CONV_PIXELS(6)
      SOD2_CONV_PIXELS(7) SOD2_CONV_PIXELS(8) SOD2_CONV_PIXELS(9)
      SOD2_CONV_PIXELS(10) SOD2_CONV_PIXELS(11) SOD2_CONV_PIXELS(12)
      SOD2_CONV_PIXELS(13) SOD2_CONV_PIXELS(14)
#undef SOD2_CONV_PIXELS
    }
    SOD2_THROW << "conv pixel block of " << count;
}

/** Tasks [t0, t1), each row in segments of up to kSegment pixels. */
void
convTasksAvx512(const ConvProblem& p, int64_t t0, int64_t t1)
{
    float rowbuf[kSegment * kLanes];  // one segment, pixel-major
    float chan[kSegment];             // one channel of it
    // Columns [oxa, oxb) have every kx tap in range; border columns get
    // their own tap range, so out-of-range taps are skipped exactly as
    // in conv2dReference.
    int64_t oxa = std::min(p.ow, (p.pad + p.stride - 1) / p.stride);
    int64_t last = p.wi - p.kw + p.pad;  // last interior ox * stride
    int64_t oxb = last < 0 ? oxa
                           : std::clamp(last / p.stride + 1, oxa, p.ow);
    for (int64_t t = t0; t < t1; ++t) {
        int64_t oy = t % p.oh;
        int64_t rest = t / p.oh;
        int64_t blk = rest % p.blocks;
        rest /= p.blocks;
        int64_t g = rest % p.group;
        int64_t ni = rest / p.group;
        const float* xg = p.x + (ni * p.c + g * p.icg) * p.h * p.wi;
        const float* wb = p.packed + (g * p.blocks + blk) * p.blockFloats;
        int64_t iy0 = oy * p.stride - p.pad;
        int64_t ky0 = std::max<int64_t>(0, -iy0);
        int64_t ky1 = std::min(p.kh, p.h - iy0);
        int64_t lanes = std::min(kLanes, p.ocg - blk * kLanes);
        for (int64_t s0 = 0; s0 < p.ow; s0 += kSegment) {
            int64_t s1 = std::min(p.ow, s0 + kSegment);
            for (int64_t ox = s0; ox < s1;) {
                int64_t ix0 = ox * p.stride - p.pad;
                float* acc_out = rowbuf + (ox - s0) * kLanes;
                if (ox >= oxa && ox < oxb) {
                    int count = static_cast<int>(std::min<int64_t>(
                        kPixelBlock, std::min(oxb, s1) - ox));
                    convPixelRun(count, p, xg, wb, iy0, ky0, ky1, ix0, 0,
                                 p.kw, acc_out);
                    ox += count;
                } else {
                    convPixelRun(1, p, xg, wb, iy0, ky0, ky1, ix0,
                                 std::max<int64_t>(0, -ix0),
                                 std::min(p.kw, p.wi - ix0), acc_out);
                    ++ox;
                }
            }
            // Lane j is channel j of the block: copy each to its output
            // row, running the epilogue over the whole segment.
            for (int64_t j = 0; j < lanes; ++j) {
                int64_t oci = g * p.ocg + blk * kLanes + j;
                int64_t flat = ((ni * p.oc + oci) * p.oh + oy) * p.ow + s0;
                float* dst = p.out + flat;
                float* row = p.epilogue ? chan : dst;
                for (int64_t i = 0; i < s1 - s0; ++i)
                    row[i] = rowbuf[i * kLanes + j];
                if (p.epilogue)
                    p.epilogue->applyBlock(chan, dst, flat, s1 - s0);
            }
        }
    }
}

}  // namespace

#pragma GCC pop_options

#endif  // defined(__x86_64__)

void
conv2d(const Tensor& x, const Tensor& w, const Tensor* bias, Tensor* out,
       int64_t stride, int64_t pad, int64_t group, const ConvVariant& v,
       const FusedEpilogue& epilogue)
{
#if defined(__x86_64__)
    if (!hostHasAvx512f()) {
        conv2dReference(x, w, bias, out, stride, pad, group, v, epilogue);
        return;
    }
    const Shape& xs = x.shape();
    const Shape& ws = w.shape();
    const Shape& os = out->shape();
    SOD2_CHECK_EQ(xs.rank(), 4);
    SOD2_CHECK_EQ(ws.rank(), 4);
    ConvProblem p{};
    int64_t n = xs.dim(0);
    p.c = xs.dim(1);
    p.h = xs.dim(2);
    p.wi = xs.dim(3);
    p.oc = ws.dim(0);
    p.icg = ws.dim(1);
    p.kh = ws.dim(2);
    p.kw = ws.dim(3);
    p.oh = os.dim(2);
    p.ow = os.dim(3);
    SOD2_CHECK_EQ(p.c, p.icg * group) << "conv channel/group mismatch";
    SOD2_CHECK_EQ(p.oc % group, 0);
    p.ocg = p.oc / group;
    p.group = group;
    p.stride = stride;
    p.pad = pad;
    p.blocks = (p.ocg + kLanes - 1) / kLanes;
    int64_t taps = p.icg * p.kh * p.kw;
    p.blockFloats = (taps + 1) * kLanes;

    std::vector<float> packed(group * p.blocks * p.blockFloats, 0.0f);
    const float* pw = w.data<float>();
    const float* pb = bias ? bias->data<float>() : nullptr;
    for (int64_t oci = 0; oci < p.oc; ++oci) {
        int64_t g = oci / p.ocg, local = oci % p.ocg;
        float* blk = packed.data() +
                     (g * p.blocks + local / kLanes) * p.blockFloats;
        int64_t lane = local % kLanes;
        for (int64_t t = 0; t < taps; ++t)
            blk[t * kLanes + lane] = pw[oci * taps + t];
        if (pb)
            blk[taps * kLanes + lane] = pb[oci];
    }
    p.x = x.data<float>();
    p.packed = packed.data();
    p.out = out->data<float>();
    p.epilogue = epilogue ? &epilogue : nullptr;

    int64_t tasks = n * group * p.blocks * p.oh;
    double task_flops = std::max(
        1.0, 2.0 * static_cast<double>(p.ow * std::min(p.ocg, kLanes) * taps));
    auto run = [&](int64_t t0, int64_t t1) { convTasksAvx512(p, t0, t1); };
    if (v.parallel) {
        parallelFor(tasks, run,
                    std::max<int64_t>(1, static_cast<int64_t>(
                                             kChunkFlops / task_flops)));
    } else {
        run(0, tasks);
    }
#else
    conv2dReference(x, w, bias, out, stride, pad, group, v, epilogue);
#endif
}

double
convFlops(const Shape& x, const Shape& w, const Shape& out, int64_t group)
{
    double macs = static_cast<double>(out.numElements()) *
                  (x.dim(1) / group) * w.dim(2) * w.dim(3);
    return 2.0 * macs;
}

}  // namespace sod2
