#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernels/device_profile.h"
#include "support/logging.h"
#include "support/string_util.h"
#include "support/threadpool.h"
#include "tensor/broadcast.h"

namespace sod2 {

std::string
GemmVariant::toString() const
{
    return strFormat("gemm[%ldx%ldx%ld%s]", static_cast<long>(tileM),
                     static_cast<long>(tileN), static_cast<long>(tileK),
                     parallel ? ",par" : "");
}

namespace {

/** One M-panel of the blocked reference GEMM. */
void
gemmPanel(const float* a, const float* b, float* c, int64_t m0, int64_t m1,
          int64_t n, int64_t k, const GemmVariant& v, const float* bias)
{
    for (int64_t i = m0; i < m1; ++i) {
        float* crow = c + i * n;
        if (bias) {
            std::memcpy(crow, bias, n * sizeof(float));
        } else {
            std::memset(crow, 0, n * sizeof(float));
        }
    }
    for (int64_t kk = 0; kk < k; kk += v.tileK) {
        int64_t kend = std::min(k, kk + v.tileK);
        for (int64_t jj = 0; jj < n; jj += v.tileN) {
            int64_t jend = std::min(n, jj + v.tileN);
            for (int64_t i = m0; i < m1; ++i) {
                const float* arow = a + i * k;
                float* crow = c + i * n;
                for (int64_t p = kk; p < kend; ++p) {
                    float av = arow[p];
                    const float* brow = b + p * n;
                    for (int64_t j = jj; j < jend; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

/** Operand shapes of one matmul: m, k, n and each broadcast batch's
 *  element offsets into A and B. */
struct MatmulShape
{
    int64_t m = 0, k = 0, n = 0;
    std::vector<int64_t> aOffset, bOffset;
};

MatmulShape
matmulShape(const Tensor& a, const Tensor& b)
{
    const Shape& sa = a.shape();
    const Shape& sb = b.shape();
    SOD2_CHECK(sa.rank() >= 2 && sb.rank() >= 2)
        << "matmul requires rank >= 2";
    MatmulShape s;
    s.m = sa.dimAt(-2);
    s.k = sa.dimAt(-1);
    int64_t k2 = sb.dimAt(-2);
    s.n = sb.dimAt(-1);
    SOD2_CHECK_EQ(s.k, k2) << "matmul inner dim mismatch: " << sa.toString()
                           << " x " << sb.toString();

    // Batch dims broadcast.
    std::vector<int64_t> ba(sa.dims().begin(), sa.dims().end() - 2);
    std::vector<int64_t> bb(sb.dims().begin(), sb.dims().end() - 2);
    Shape batch = broadcastShapes(Shape(ba), Shape(bb));
    int64_t batches = batch.numElements();

    auto strides_a = broadcastStrides(Shape(ba), batch);
    auto strides_b = broadcastStrides(Shape(bb), batch);
    auto batch_strides = batch.strides();
    for (int64_t bi = 0; bi < batches; ++bi) {
        s.aOffset.push_back(
            broadcastIndex(bi, batch_strides, strides_a) * s.m * s.k);
        s.bOffset.push_back(
            broadcastIndex(bi, batch_strides, strides_b) * s.k * s.n);
    }
    return s;
}

}  // namespace

void
gemmF32Reference(const float* a, const float* b, float* c, int64_t m,
                 int64_t n, int64_t k, const GemmVariant& v,
                 const float* bias)
{
    if (!v.parallel || m < 2 * v.tileM) {
        gemmPanel(a, b, c, 0, m, n, k, v, bias);
        return;
    }
    parallelFor(
        (m + v.tileM - 1) / v.tileM,
        [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
                int64_t m0 = t * v.tileM;
                int64_t m1 = std::min(m, m0 + v.tileM);
                gemmPanel(a, b, c, m0, m1, n, k, v, bias);
            }
        });
}

void
matmulReference(const Tensor& a, const Tensor& b, Tensor* out,
                const GemmVariant& v, const FusedEpilogue& epilogue)
{
    MatmulShape s = matmulShape(a, b);
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* pc = out->data<float>();
    for (size_t bi = 0; bi < s.aOffset.size(); ++bi)
        gemmF32Reference(pa + s.aOffset[bi], pb + s.bOffset[bi],
                         pc + bi * s.m * s.n, s.m, s.n, s.k, v);
    if (epilogue) {
        parallelFor(
            out->numElements(),
            [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i)
                    pc[i] = epilogue.apply(pc[i], i);
            },
            1 << 14);
    }
}

#if defined(__x86_64__)

namespace {

/** Rows of one micro-tile. */
constexpr int64_t kMr = 6;
/** Columns of one micro-tile: two vectors of 16 floats. */
constexpr int64_t kNr = 32;
/** Work per parallelFor chunk; smaller GEMMs stay on the calling
 *  thread. */
constexpr double kChunkFlops = 256e3;

/**
 * One GEMM call (a batch of same-shape problems) as the AVX-512 kernel
 * sees it. Tasks are kMr-row blocks, batch-major.
 */
struct GemmProblem
{
    int64_t m, n, k;
    int64_t rowBlocks;  ///< ceil(m / kMr) per batch
    const float* a;
    const float* b;
    float* c;
    const int64_t* aOffset;
    const int64_t* bOffset;
    const float* bias;
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
 * C[MR, 16 * NV] for one tile: starts from the bias or zero, then
 * + a * b for p = 0 .. k-1 in order. Masked tiles load and store only
 * the lanes in @p mask (one mask per vector); unmasked tiles use plain
 * full-width accesses.
 */
template <int MR, int NV, bool Masked>
void
gemmTile(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
         int64_t ldc, int64_t k, const float* bias, const __mmask16* mask)
{
    __m512 acc[MR][NV];
#pragma GCC unroll 2
    for (int j = 0; j < NV; ++j) {
        __m512 init = _mm512_setzero_ps();
        if (bias)
            init = Masked ? _mm512_maskz_loadu_ps(mask[j], bias + 16 * j)
                          : _mm512_loadu_ps(bias + 16 * j);
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r)
            acc[r][j] = init;
    }
    for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * ldb;
        __m512 bv[NV];
#pragma GCC unroll 2
        for (int j = 0; j < NV; ++j)
            bv[j] = Masked ? _mm512_maskz_loadu_ps(mask[j], brow + 16 * j)
                           : _mm512_loadu_ps(brow + 16 * j);
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r) {
            const __m512 av = _mm512_set1_ps(a[r * lda + p]);
#pragma GCC unroll 2
            for (int j = 0; j < NV; ++j)
                acc[r][j] = _mm512_add_ps(acc[r][j],
                                          _mm512_mul_ps(av, bv[j]));
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
        for (int j = 0; j < NV; ++j) {
            if (Masked)
                _mm512_mask_storeu_ps(c + r * ldc + 16 * j, mask[j],
                                      acc[r][j]);
            else
                _mm512_storeu_ps(c + r * ldc + 16 * j, acc[r][j]);
        }
    }
}

/** Mask of the low @p count (1..16) lanes. */
__mmask16
lanes(int64_t count)
{
    return static_cast<__mmask16>((1u << count) - 1);
}

/** The tile for @p nr (1..kNr) columns of MR rows. */
template <int MR>
void
gemmTileCols(const float* a, int64_t lda, const float* b, int64_t ldb,
             float* c, int64_t ldc, int64_t k, const float* bias,
             int64_t nr)
{
    if (nr == kNr) {
        gemmTile<MR, 2, false>(a, lda, b, ldb, c, ldc, k, bias, nullptr);
    } else if (nr > 16) {
        const __mmask16 mask[2] = {lanes(16), lanes(nr - 16)};
        gemmTile<MR, 2, true>(a, lda, b, ldb, c, ldc, k, bias, mask);
    } else if (nr == 16) {
        gemmTile<MR, 1, false>(a, lda, b, ldb, c, ldc, k, bias, nullptr);
    } else {
        const __mmask16 mask[1] = {lanes(nr)};
        gemmTile<MR, 1, true>(a, lda, b, ldb, c, ldc, k, bias, mask);
    }
}

/**
 * Rows [r0, r1) of batch @p bi: every kNr-column panel, kMr rows at a
 * time (the panel of B stays in cache across the rows), then the
 * epilogue over the finished rows.
 */
void
gemmRowsAvx512(const GemmProblem& p, int64_t bi, int64_t r0, int64_t r1)
{
    const float* a = p.a + p.aOffset[bi];
    const float* b = p.b + p.bOffset[bi];
    float* c = p.c + bi * p.m * p.n;
    for (int64_t j = 0; j < p.n; j += kNr) {
        int64_t nr = std::min(kNr, p.n - j);
        const float* bias = p.bias ? p.bias + j : nullptr;
        for (int64_t i = r0; i < r1; i += kMr) {
            static constexpr decltype(&gemmTileCols<1>) kTiles[kMr] = {
                gemmTileCols<1>, gemmTileCols<2>, gemmTileCols<3>,
                gemmTileCols<4>, gemmTileCols<5>, gemmTileCols<6>};
            kTiles[std::min(kMr, r1 - i) - 1](a + i * p.k, p.k, b + j, p.n,
                                              c + i * p.n + j, p.n, p.k,
                                              bias, nr);
        }
    }
    if (p.epilogue) {
        float* block = c + r0 * p.n;
        p.epilogue->applyBlock(block, block, (bi * p.m + r0) * p.n,
                               (r1 - r0) * p.n);
    }
}

/** Tasks [t0, t1): runs of consecutive row blocks of one batch. */
void
gemmTasksAvx512(const GemmProblem& p, int64_t t0, int64_t t1)
{
    while (t0 < t1) {
        int64_t bi = t0 / p.rowBlocks;
        int64_t end = std::min(t1, (bi + 1) * p.rowBlocks);
        int64_t r0 = (t0 - bi * p.rowBlocks) * kMr;
        int64_t r1 = std::min(p.m, (end - bi * p.rowBlocks) * kMr);
        gemmRowsAvx512(p, bi, r0, r1);
        t0 = end;
    }
}

}  // namespace

#pragma GCC pop_options

namespace {

/** Runs @p p over the pool, about kChunkFlops per chunk. */
void
runGemmAvx512(const GemmProblem& p, int64_t batches, bool parallel)
{
    int64_t tasks = batches * p.rowBlocks;
    auto run = [&](int64_t t0, int64_t t1) { gemmTasksAvx512(p, t0, t1); };
    double task_flops =
        std::max(1.0, 2.0 * static_cast<double>(kMr * p.n * p.k));
    if (parallel) {
        parallelFor(tasks, run,
                    std::max<int64_t>(1, static_cast<int64_t>(
                                             kChunkFlops / task_flops)));
    } else {
        run(0, tasks);
    }
}

}  // namespace

#endif  // defined(__x86_64__)

void
gemmF32(const float* a, const float* b, float* c, int64_t m, int64_t n,
        int64_t k, const GemmVariant& v, const float* bias)
{
#if defined(__x86_64__)
    if (hostHasAvx512f()) {
        const int64_t zero = 0;
        GemmProblem p{m, n, k, (m + kMr - 1) / kMr, a, b, c, &zero, &zero,
                      bias, nullptr};
        runGemmAvx512(p, 1, v.parallel);
        return;
    }
#endif
    gemmF32Reference(a, b, c, m, n, k, v, bias);
}

void
matmul(const Tensor& a, const Tensor& b, Tensor* out, const GemmVariant& v,
       const FusedEpilogue& epilogue)
{
#if defined(__x86_64__)
    if (hostHasAvx512f()) {
        MatmulShape s = matmulShape(a, b);
        GemmProblem p{s.m, s.n, s.k, (s.m + kMr - 1) / kMr,
                      a.data<float>(), b.data<float>(), out->data<float>(),
                      s.aOffset.data(), s.bOffset.data(), nullptr,
                      epilogue ? &epilogue : nullptr};
        runGemmAvx512(p, static_cast<int64_t>(s.aOffset.size()), v.parallel);
        return;
    }
#endif
    matmulReference(a, b, out, v, epilogue);
}

double
matmulFlops(const Shape& a, const Shape& b)
{
    int64_t m = a.dimAt(-2);
    int64_t k = a.dimAt(-1);
    int64_t n = b.dimAt(-1);
    std::vector<int64_t> ba(a.dims().begin(), a.dims().end() - 2);
    std::vector<int64_t> bb(b.dims().begin(), b.dims().end() - 2);
    int64_t batches =
        broadcastShapes(Shape(ba), Shape(bb)).numElements();
    return 2.0 * static_cast<double>(batches) * m * n * k;
}

}  // namespace sod2
