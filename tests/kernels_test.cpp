/** Direct kernel tests: data-movement ops against naive references,
 *  parameterized over shapes (property-style sweeps), the dispatched
 *  conv / GEMM / block-epilogue paths against the scalar reference
 *  kernels, compared bit for bit, the vector expf against std::exp and
 *  the Softmax / LayerNorm / GlobalAveragePool row paths against their
 *  references, bit for bit, the layout ops against the per-element
 *  strided-copy reference, byte for byte, and the thread pool's
 *  chunking and spin-then-park protocol. */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/conv.h"
#include "kernels/data_movement.h"
#include "kernels/device_profile.h"
#include "kernels/elementwise.h"
#include "kernels/fused_program.h"
#include "kernels/gemm.h"
#include "kernels/reduce.h"
#include "kernels/vector_exp.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tensor/broadcast.h"

namespace sod2 {
namespace {

Tensor
sequential(const Shape& s)
{
    Tensor t(DType::kFloat32, s);
    float* p = t.data<float>();
    for (int64_t i = 0; i < t.numElements(); ++i)
        p[i] = static_cast<float>(i);
    return t;
}

TEST(DataMovement, Transpose2D)
{
    Tensor in = sequential(Shape({2, 3}));
    Tensor out(DType::kFloat32, Shape({3, 2}));
    transpose(in, {1, 0}, &out);
    // in = [[0,1,2],[3,4,5]] -> out[i][j] = in[j][i]
    EXPECT_EQ(out.data<float>()[0], 0.0f);
    EXPECT_EQ(out.data<float>()[1], 3.0f);
    EXPECT_EQ(out.data<float>()[2], 1.0f);
    EXPECT_EQ(out.data<float>()[5], 5.0f);
}

/** Property: transpose(transpose(x, p), inverse(p)) == x. */
class TransposeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TransposeRoundTrip, InverseRestores)
{
    Rng rng(GetParam());
    int rank = static_cast<int>(rng.uniformInt(2, 4));
    std::vector<int64_t> dims, perm(rank);
    for (int i = 0; i < rank; ++i) {
        dims.push_back(rng.uniformInt(1, 5));
        perm[i] = i;
    }
    // Random permutation.
    for (int i = rank - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.uniformInt(0, i)]);
    std::vector<int64_t> inverse(rank);
    for (int i = 0; i < rank; ++i)
        inverse[perm[i]] = i;

    Tensor in = sequential(Shape(dims));
    std::vector<int64_t> permuted_dims;
    for (int64_t p : perm)
        permuted_dims.push_back(dims[p]);
    Tensor mid(DType::kFloat32, Shape(permuted_dims));
    transpose(in, perm, &mid);
    Tensor back(DType::kFloat32, Shape(dims));
    transpose(mid, inverse, &back);
    EXPECT_TRUE(Tensor::allClose(in, back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransposeRoundTrip, ::testing::Range(0, 10));

TEST(DataMovement, SliceStrided)
{
    Tensor in = sequential(Shape({8}));
    Tensor out(DType::kFloat32, Shape({3}));
    slice(in, {1}, {7}, {0}, {2}, &out);
    EXPECT_EQ(out.data<float>()[0], 1.0f);
    EXPECT_EQ(out.data<float>()[1], 3.0f);
    EXPECT_EQ(out.data<float>()[2], 5.0f);
}

TEST(DataMovement, SliceNegativeStart)
{
    Tensor in = sequential(Shape({8}));
    Tensor out(DType::kFloat32, Shape({2}));
    slice(in, {-2}, {8}, {0}, {}, &out);
    EXPECT_EQ(out.data<float>()[0], 6.0f);
    EXPECT_EQ(out.data<float>()[1], 7.0f);
}

TEST(DataMovement, ConcatSplitRoundTrip)
{
    Tensor a = sequential(Shape({2, 3}));
    Tensor b = sequential(Shape({2, 2}));
    Tensor merged(DType::kFloat32, Shape({2, 5}));
    concat({a, b}, 1, &merged);
    EXPECT_EQ(merged.data<float>()[3], 0.0f);  // b[0,0]
    EXPECT_EQ(merged.data<float>()[5], 3.0f);  // a[1,0]

    // Split back along an evenly divisible axis.
    Tensor big = sequential(Shape({4, 6}));
    std::vector<Tensor> parts = {Tensor(DType::kFloat32, Shape({4, 3})),
                                 Tensor(DType::kFloat32, Shape({4, 3}))};
    split(big, 1, &parts);
    EXPECT_EQ(parts[0].data<float>()[0], 0.0f);
    EXPECT_EQ(parts[1].data<float>()[0], 3.0f);
    Tensor rejoined(DType::kFloat32, Shape({4, 6}));
    concat(parts, 1, &rejoined);
    EXPECT_TRUE(Tensor::allClose(big, rejoined));
}

TEST(DataMovement, GatherRows)
{
    Tensor table = sequential(Shape({4, 3}));
    Tensor idx = Tensor::fromInt64({2, 0});
    Tensor out(DType::kFloat32, Shape({2, 3}));
    gather(table, idx, 0, &out);
    EXPECT_EQ(out.data<float>()[0], 6.0f);
    EXPECT_EQ(out.data<float>()[3], 0.0f);
    // Negative and out-of-range indices.
    Tensor neg = Tensor::fromInt64({-1});
    Tensor out2(DType::kFloat32, Shape({1, 3}));
    gather(table, neg, 0, &out2);
    EXPECT_EQ(out2.data<float>()[0], 9.0f);
    Tensor bad = Tensor::fromInt64({7});
    EXPECT_THROW(gather(table, bad, 0, &out2), Error);
}

TEST(DataMovement, ExpandBroadcasts)
{
    Tensor in = sequential(Shape({1, 3}));
    Tensor out(DType::kFloat32, Shape({2, 3}));
    expandTo(in, &out);
    EXPECT_EQ(out.data<float>()[3], 0.0f);
    EXPECT_EQ(out.data<float>()[5], 2.0f);
}

TEST(DataMovement, Pad2dAndResize)
{
    Tensor in = sequential(Shape({1, 1, 2, 2}));
    Tensor padded(DType::kFloat32, Shape({1, 1, 4, 4}));
    pad2d(in, 1, -1.0f, &padded);
    EXPECT_EQ(padded.data<float>()[0], -1.0f);
    EXPECT_EQ(padded.data<float>()[5], 0.0f);  // (1,1) = in(0,0)

    Tensor up(DType::kFloat32, Shape({1, 1, 4, 4}));
    resizeNearest(in, 2, 2, &up);
    EXPECT_EQ(up.data<float>()[0], 0.0f);
    EXPECT_EQ(up.data<float>()[1], 0.0f);
    EXPECT_EQ(up.data<float>()[2], 1.0f);
    EXPECT_EQ(up.data<float>()[15], 3.0f);
}

TEST(DataMovement, TileRepeats)
{
    Tensor in = sequential(Shape({1, 2}));
    Tensor out(DType::kFloat32, Shape({2, 4}));
    tile(in, {2, 2}, &out);
    EXPECT_EQ(out.data<float>()[0], 0.0f);
    EXPECT_EQ(out.data<float>()[2], 0.0f);
    EXPECT_EQ(out.data<float>()[3], 1.0f);
    EXPECT_EQ(out.data<float>()[4], 0.0f);
}

TEST(DataMovement, EyeLikeAndOneHot)
{
    Tensor in(DType::kFloat32, Shape({2, 3}));
    Tensor eye(DType::kFloat32, Shape({2, 3}));
    eyeLike(in, &eye);
    EXPECT_EQ(eye.data<float>()[0], 1.0f);
    EXPECT_EQ(eye.data<float>()[4], 1.0f);
    EXPECT_EQ(eye.data<float>()[1], 0.0f);

    Tensor idx = Tensor::fromInt64({1, 0, -1});
    Tensor hot(DType::kFloat32, Shape({3, 3}));
    oneHot(idx, 3, &hot);
    EXPECT_EQ(hot.data<float>()[1], 1.0f);
    EXPECT_EQ(hot.data<float>()[3], 1.0f);
    EXPECT_EQ(hot.data<float>()[8], 1.0f);  // -1 wraps to depth-1
}

TEST(DataMovement, NonMaxSuppressionGreedy)
{
    // Two heavily overlapping boxes + one disjoint; keep best of the
    // pair and the disjoint one.
    Tensor boxes(DType::kFloat32, Shape({3, 4}));
    float bx[] = {0, 0, 10, 10, 1, 1, 11, 11, 50, 50, 60, 60};
    std::copy(bx, bx + 12, boxes.data<float>());
    Tensor scores(DType::kFloat32, Shape({3}));
    float sc[] = {0.9f, 0.8f, 0.7f};
    std::copy(sc, sc + 3, scores.data<float>());
    Tensor keep = nonMaxSuppression(boxes, scores, 0.5f, 0.0f);
    EXPECT_EQ(keep.toInt64Vector(), (std::vector<int64_t>{0, 2}));
    // Score threshold filters.
    Tensor keep2 = nonMaxSuppression(boxes, scores, 0.5f, 0.75f);
    EXPECT_EQ(keep2.toInt64Vector(), (std::vector<int64_t>{0}));
}

TEST(Reduce, SumMeanMaxAgainstNaive)
{
    Tensor in = sequential(Shape({2, 3}));
    Tensor sum(DType::kFloat32, Shape({2, 1}));
    reduce("ReduceSum", in, {1}, true, &sum);
    EXPECT_EQ(sum.data<float>()[0], 3.0f);
    EXPECT_EQ(sum.data<float>()[1], 12.0f);

    Tensor mean(DType::kFloat32, Shape({3}));
    reduce("ReduceMean", in, {0}, false, &mean);
    EXPECT_EQ(mean.data<float>()[0], 1.5f);

    Tensor mx(DType::kFloat32, Shape());
    reduce("ReduceMax", in, {}, false, &mx);
    EXPECT_EQ(mx.data<float>()[0], 5.0f);
}

TEST(Reduce, ArgMaxInnerAxis)
{
    Tensor in(DType::kFloat32, Shape({2, 3}));
    float vals[] = {1, 5, 2, 9, 0, 3};
    std::copy(vals, vals + 6, in.data<float>());
    Tensor out(DType::kInt64, Shape({2}));
    argMax(in, 1, false, &out);
    EXPECT_EQ(out.toInt64Vector(), (std::vector<int64_t>{1, 0}));
}

TEST(Elementwise, ScalarTableMatchesStd)
{
    AttrMap attrs;
    auto op = [&](const char* name, float a, float b = 0.0f) {
        return applyFusedOpcode(elementwiseInstr(name, attrs), a, b);
    };
    EXPECT_FLOAT_EQ(op("Sigmoid", 0.0f), 0.5f);
    EXPECT_FLOAT_EQ(op("Tanh", 1.0f), std::tanh(1.0f));
    EXPECT_FLOAT_EQ(op("Erf", 0.5f), std::erf(0.5f));
    EXPECT_FLOAT_EQ(op("Pow", 2.0f, 10.0f), 1024.0f);
    EXPECT_FLOAT_EQ(op("Mod", 7.5f, 2.0f), std::fmod(7.5f, 2.0f));
    EXPECT_EQ(op("Not", 0.0f), 1.0f);
    EXPECT_EQ(op("Less", 1.0f, 2.0f), 1.0f);
    EXPECT_EQ(op("And", 1.0f, 0.0f), 0.0f);
    EXPECT_FLOAT_EQ(op("LeakyRelu", -2.0f), -0.02f);  // default alpha
    EXPECT_THROW(elementwiseInstr("Nope", attrs), Error);
}

TEST(CostModel, RooflineBehaviour)
{
    CostMeter meter(DeviceProfile::mobileGpu());
    meter.chargeKernel(/*flops=*/1e9, /*bytes=*/1e3);  // compute bound
    double compute_bound = meter.seconds();
    meter.reset();
    meter.chargeKernel(/*flops=*/1e3, /*bytes=*/1e9);  // memory bound
    double memory_bound = meter.seconds();
    EXPECT_GT(compute_bound, 0.0);
    EXPECT_GT(memory_bound, 0.0);
    // fp16 halves traffic: memory-bound time below fp32 equivalent.
    CostMeter fp32(DeviceProfile::mobileCpu());
    fp32.chargeKernel(1e3, 1e9);
    EXPECT_LT(memory_bound, fp32.seconds() * 2.0);

    meter.reset();
    EXPECT_EQ(meter.seconds(), 0.0);
    meter.chargeAllocTouch(1e6);
    EXPECT_GT(meter.seconds(), 0.0);
}


/** Conv correctness sweep: direct kernel vs a naive reference across
 *  stride/pad/group combinations (parameterized property test). */
class ConvSweep : public ::testing::TestWithParam<
                      std::tuple<int, int, int, int>> {};

TEST_P(ConvSweep, MatchesNaiveReference)
{
    auto [stride, pad, group, kernel] = GetParam();
    const int64_t n = 2, c = 4, h = 9, w = 11;
    const int64_t oc = 6;
    if (c % group != 0 || oc % group != 0)
        GTEST_SKIP();
    int64_t oh = (h + 2 * pad - kernel) / stride + 1;
    int64_t ow = (w + 2 * pad - kernel) / stride + 1;
    if (oh <= 0 || ow <= 0)
        GTEST_SKIP();

    Rng rng(17);
    Tensor x = Tensor::randomUniform(Shape({n, c, h, w}), rng);
    Tensor wt = Tensor::randomUniform(
        Shape({oc, c / group, kernel, kernel}), rng);
    Tensor bias = Tensor::randomUniform(Shape({oc}), rng);
    Tensor out(DType::kFloat32, Shape({n, oc, oh, ow}));
    conv2d(x, wt, &bias, &out, stride, pad, group, ConvVariant{});

    // Naive reference.
    const float* px = x.data<float>();
    const float* pw = wt.data<float>();
    const float* pb = bias.data<float>();
    int64_t icg = c / group;
    int64_t ocg = oc / group;
    for (int64_t ni = 0; ni < n; ++ni) {
        for (int64_t o = 0; o < oc; ++o) {
            int64_t g = o / ocg;
            for (int64_t oy = 0; oy < oh; ++oy) {
                for (int64_t ox = 0; ox < ow; ++ox) {
                    double acc = pb[o];
                    for (int64_t ic = 0; ic < icg; ++ic) {
                        for (int64_t ky = 0; ky < kernel; ++ky) {
                            for (int64_t kx = 0; kx < kernel; ++kx) {
                                int64_t iy = oy * stride - pad + ky;
                                int64_t ix = ox * stride - pad + kx;
                                if (iy < 0 || iy >= h || ix < 0 ||
                                    ix >= w)
                                    continue;
                                acc += px[((ni * c + g * icg + ic) * h +
                                           iy) * w + ix] *
                                       pw[((o * icg + ic) * kernel + ky) *
                                              kernel + kx];
                            }
                        }
                    }
                    float got = out.data<float>()[
                        ((ni * oc + o) * oh + oy) * ow + ox];
                    ASSERT_NEAR(got, acc, 1e-3)
                        << "at n=" << ni << " o=" << o << " y=" << oy
                        << " x=" << ox;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    StridePadGroupKernel, ConvSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),   // stride
                       ::testing::Values(0, 1, 2),   // pad
                       ::testing::Values(1, 2),      // group
                       ::testing::Values(1, 3)));    // kernel

// ---- Bit identity of the dispatched kernels ------------------------
//
// conv2d, gemmF32 and matmul take the AVX-512 path on hosts with
// AVX-512F; every output must equal the scalar reference kernel's bit
// for bit (memcmp, no tolerance). On other hosts the dispatched call is
// the reference itself and these tests hold trivially.

/** Index of the first element whose bits differ, or -1. */
int64_t
firstBitDifference(const float* a, const float* b, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        if (std::memcmp(a + i, b + i, sizeof(float)) != 0)
            return i;
    return -1;
}

void
expectBitIdentical(const Tensor& got, const Tensor& want,
                   const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    int64_t n = got.numElements();
    if (std::memcmp(got.data<float>(), want.data<float>(),
                    n * sizeof(float)) == 0)
        return;
    int64_t i = firstBitDifference(got.data<float>(), want.data<float>(), n);
    ADD_FAILURE() << what << ": element " << i << " is "
                  << got.data<float>()[i] << ", reference "
                  << want.data<float>()[i];
}

/** A named epilogue program over anchor register 0; "residual" reads
 *  external 0 (an output-shaped tensor). */
struct EpilogueCase
{
    std::string name;
    std::vector<FusedInstr> program;
};

FusedInstr
instr(FusedOpCode op, int src0, int src1 = 0, bool binary = false)
{
    FusedInstr ins;
    ins.op = op;
    ins.src0 = src0;
    ins.src1 = src1;
    ins.src1Used = binary;
    return ins;
}

std::vector<EpilogueCase>
epilogueCases()
{
    FusedInstr leaky = instr(FusedOpCode::kLeakyRelu, 0);
    leaky.p0 = 0.1f;
    FusedInstr clip = instr(FusedOpCode::kClip, 0);
    clip.p0 = -0.5f;
    clip.p1 = 0.75f;
    FusedInstr scaled = instr(FusedOpCode::kMul, 2, 0, true);
    scaled.src1Scalar = true;
    scaled.imm1 = 0.5f;
    return {
        {"none", {}},
        {"Relu", {instr(FusedOpCode::kRelu, 0)}},
        {"SiLU",
         {instr(FusedOpCode::kSigmoid, 0),
          instr(FusedOpCode::kMul, 0, 1, true)}},
        {"LeakyRelu", {leaky}},
        {"Clip", {clip}},
        {"Exp", {instr(FusedOpCode::kExp, 0)}},
        {"Softplus", {instr(FusedOpCode::kSoftplus, 0)}},
        {"residual",
         {instr(FusedOpCode::kAdd, 0, ~0, true),
          instr(FusedOpCode::kRelu, 1), scaled}},
    };
}

struct ConvCase
{
    int64_t n, c, h, w, oc, k, stride, pad, group;
};

std::string
convName(const ConvCase& cc)
{
    return std::to_string(cc.n) + "x" + std::to_string(cc.c) + "x" +
           std::to_string(cc.h) + "x" + std::to_string(cc.w) + " -> " +
           std::to_string(cc.oc) + " k" + std::to_string(cc.k) + " s" +
           std::to_string(cc.stride) + " p" + std::to_string(cc.pad) +
           " g" + std::to_string(cc.group);
}

void
PrintTo(const ConvCase& cc, std::ostream* os)
{
    *os << convName(cc);
}

/** conv2d against conv2dReference for every epilogue, with and without
 *  bias, serial and parallel. */
void
expectConvBitIdentical(const ConvCase& cc)
{
    int64_t oh = (cc.h + 2 * cc.pad - cc.k) / cc.stride + 1;
    int64_t ow = (cc.w + 2 * cc.pad - cc.k) / cc.stride + 1;
    ASSERT_GT(oh, 0);
    ASSERT_GT(ow, 0);
    Rng rng(static_cast<uint64_t>(cc.c * 131 + cc.oc * 7 + cc.w));
    Tensor x = Tensor::randomUniform(Shape({cc.n, cc.c, cc.h, cc.w}), rng);
    Tensor wt = Tensor::randomUniform(
        Shape({cc.oc, cc.c / cc.group, cc.k, cc.k}), rng);
    Tensor bias = Tensor::randomUniform(Shape({cc.oc}), rng);
    Shape os({cc.n, cc.oc, oh, ow});
    Tensor residual = Tensor::randomUniform(os, rng);
    const float* externals[] = {residual.data<float>()};
    for (const EpilogueCase& ec : epilogueCases()) {
        FusedEpilogue epi;
        if (!ec.program.empty()) {
            epi.program = &ec.program;
            epi.externals = externals;
        }
        for (bool with_bias : {true, false}) {
            for (bool parallel : {true, false}) {
                ConvVariant v{8, parallel};
                const Tensor* b = with_bias ? &bias : nullptr;
                Tensor got(DType::kFloat32, os), want(DType::kFloat32, os);
                conv2d(x, wt, b, &got, cc.stride, cc.pad, cc.group, v, epi);
                conv2dReference(x, wt, b, &want, cc.stride, cc.pad,
                                cc.group, v, epi);
                expectBitIdentical(got, want,
                                   convName(cc) + " epilogue=" + ec.name +
                                       (with_bias ? " bias" : "") +
                                       (parallel ? " par" : ""));
            }
        }
    }
}

class ConvBitIdentity : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBitIdentity, MatchesReference)
{
    expectConvBitIdentical(GetParam());
}

// The zoo's conv shape families (models/models_*.cpp).
INSTANTIATE_TEST_SUITE_P(
    ZooShapes, ConvBitIdentity,
    ::testing::Values(
        ConvCase{1, 3, 72, 120, 8, 8, 8, 0, 1},    // 8x8/s8 stems
        ConvCase{1, 3, 64, 64, 16, 8, 8, 0, 1},
        ConvCase{1, 3, 224, 224, 32, 8, 8, 0, 1},
        ConvCase{1, 3, 64, 96, 8, 4, 4, 0, 1},     // 4x4/s4 stem
        ConvCase{1, 16, 28, 28, 16, 3, 1, 1, 1},   // 3x3/s1
        ConvCase{1, 32, 15, 13, 32, 3, 1, 1, 1},
        ConvCase{1, 1, 40, 33, 8, 3, 2, 1, 1},     // 3x3/s2
        ConvCase{1, 8, 21, 20, 8, 3, 2, 1, 1},
        ConvCase{1, 8, 32, 32, 16, 3, 2, 1, 1},
        ConvCase{1, 16, 29, 30, 32, 3, 2, 1, 1},
        ConvCase{1, 16, 14, 14, 5, 1, 1, 0, 1},    // 1x1 heads
        ConvCase{1, 32, 7, 7, 5, 1, 1, 0, 1},
        ConvCase{1, 32, 16, 16, 1, 1, 1, 0, 1},
        ConvCase{1, 48, 37, 1, 48, 3, 1, 1, 48},   // depthwise (Conformer)
        ConvCase{1, 48, 9, 15, 48, 3, 1, 1, 48},
        ConvCase{1, 8, 9, 17, 40, 3, 1, 1, 2}),    // 2 groups x 20 channels
    [](const ::testing::TestParamInfo<ConvCase>& info) {
        const ConvCase& c = info.param;
        return "c" + std::to_string(c.c) + "o" + std::to_string(c.oc) +
               "k" + std::to_string(c.k) + "s" + std::to_string(c.stride) +
               "g" + std::to_string(c.group) + "w" + std::to_string(c.w);
    });

/** Register-block edges: output widths around the 14-pixel block (and
 *  past the 128-pixel row segment), two images, 20 channels (a full and
 *  a masked 16-channel block), and every pad 0-2 / stride 1-3 whose
 *  output is non-empty. */
class ConvEdgeBitIdentity : public ::testing::TestWithParam<int64_t> {};

TEST_P(ConvEdgeBitIdentity, MatchesReference)
{
    int64_t width = GetParam();
    for (int64_t stride = 1; stride <= 3; ++stride)
        for (int64_t pad = 0; pad <= 2; ++pad)
            if (width + 2 * pad >= 3)
                expectConvBitIdentical(
                    ConvCase{2, 3, 6, width, 20, 3, stride, pad, 1});
}

INSTANTIATE_TEST_SUITE_P(Widths, ConvEdgeBitIdentity,
                         ::testing::Values(1, 13, 14, 15, 29, 300));

/** gemmF32 against gemmF32Reference over m x n x k, with and without
 *  bias. Covers 6-row tiles and their tails, 32-column panels, masked
 *  column tails and k from 1. */
class GemmBitIdentity : public ::testing::TestWithParam<int64_t> {};

TEST_P(GemmBitIdentity, MatchesReference)
{
    int64_t m = GetParam();
    for (int64_t n : {1, 2, 12, 16, 31, 32, 33, 48, 96}) {
        for (int64_t k : {1, 8, 12, 48, 384}) {
            Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k));
            Tensor a = Tensor::randomUniform(Shape({m, k}), rng);
            Tensor b = Tensor::randomUniform(Shape({k, n}), rng);
            Tensor bias = Tensor::randomUniform(Shape({n}), rng);
            for (bool with_bias : {false, true}) {
                const float* pb = with_bias ? bias.data<float>() : nullptr;
                Tensor got(DType::kFloat32, Shape({m, n}));
                Tensor want(DType::kFloat32, Shape({m, n}));
                GemmVariant v;
                gemmF32(a.data<float>(), b.data<float>(), got.data<float>(),
                        m, n, k, v, pb);
                gemmF32Reference(a.data<float>(), b.data<float>(),
                                 want.data<float>(), m, n, k, v, pb);
                expectBitIdentical(got, want,
                                   "gemm " + std::to_string(m) + "x" +
                                       std::to_string(n) + "x" +
                                       std::to_string(k) +
                                       (with_bias ? " bias" : ""));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Rows, GemmBitIdentity,
                         ::testing::Values(1, 5, 6, 7, 13, 384));

/** matmul (broadcast batch dims, one parallel pass over batch x row
 *  block, epilogue per row block) against matmulReference. */
TEST(MatmulBitIdentity, BroadcastBatchesAndEpilogues)
{
    struct Case
    {
        std::vector<int64_t> a, b;
    };
    const Case cases[] = {
        {{1, 4, 7, 12}, {1, 4, 12, 7}},      // attention scores, 4 heads
        {{1, 4, 33, 33}, {1, 4, 33, 12}},    // attention values
        {{2, 3, 13, 12}, {3, 12, 33}},       // A batches broadcast over B
        {{5, 6, 16}, {16, 31}},              // shared weights
        {{1, 384, 48}, {48, 96}},            // FFN up-projection
        {{1, 1, 4}, {4, 2}},                 // gate head
    };
    for (const Case& c : cases) {
        Rng rng(static_cast<uint64_t>(c.a.back() * 31 + c.b.back()));
        Tensor a = Tensor::randomUniform(Shape(c.a), rng);
        Tensor b = Tensor::randomUniform(Shape(c.b), rng);
        std::vector<int64_t> ba(c.a.begin(), c.a.end() - 2);
        std::vector<int64_t> bb(c.b.begin(), c.b.end() - 2);
        std::vector<int64_t> od =
            broadcastShapes(Shape(ba), Shape(bb)).dims();
        od.push_back(c.a[c.a.size() - 2]);
        od.push_back(c.b.back());
        Tensor residual = Tensor::randomUniform(Shape(od), rng);
        const float* externals[] = {residual.data<float>()};
        for (const EpilogueCase& ec : epilogueCases()) {
            FusedEpilogue epi;
            if (!ec.program.empty()) {
                epi.program = &ec.program;
                epi.externals = externals;
            }
            for (bool parallel : {true, false}) {
                GemmVariant v;
                v.parallel = parallel;
                Tensor got(DType::kFloat32, Shape(od));
                Tensor want(DType::kFloat32, Shape(od));
                matmul(a, b, &got, v, epi);
                matmulReference(a, b, &want, v, epi);
                expectBitIdentical(got, want,
                                   Shape(c.a).toString() + " x " +
                                       Shape(c.b).toString() + " epilogue=" +
                                       ec.name);
            }
        }
    }
}

/** The block evaluator against the per-element one, over lengths
 *  around kFusedBlock and a non-zero flat offset. Anchors reach past
 *  |x| = 88 and include infinities, so the exp-based epilogues (Exp,
 *  Sigmoid, SiLU, Softplus) take the vector expf's std::exp lanes too.
 *  NaN lanes are covered by the VectorExp tests: a NaN anchor makes
 *  SiLU multiply two NaNs, whose result sign depends on operand order
 *  in the Mul loop, not on the exp. */
TEST(FusedBlockBitIdentity, MatchesPerElementEvaluation)
{
    Rng rng(23);
    const int64_t total = 3 * kFusedBlock + 17;
    Tensor anchor =
        Tensor::randomUniform(Shape({total}), rng, -120.0f, 120.0f);
    const float inf = std::numeric_limits<float>::infinity();
    const float edges[] = {88.0f, -88.0f, 0x1.62e430p6f, -0x1.9fe368p6f,
                           inf, -inf, 0x1.5ffffep6f, -0x1.5ffffep6f, -0.0f};
    for (size_t i = 0; i < std::size(edges); ++i)
        anchor.data<float>()[9 + 13 * i] = edges[i];
    Tensor residual = Tensor::randomUniform(Shape({total}), rng);
    const float* externals[] = {residual.data<float>()};
    for (const EpilogueCase& ec : epilogueCases()) {
        if (ec.program.empty())
            continue;
        FusedEpilogue epi;
        epi.program = &ec.program;
        epi.externals = externals;
        for (int64_t len : {int64_t{1}, kFusedBlock - 1, kFusedBlock,
                            kFusedBlock + 1, 2 * kFusedBlock + 5}) {
            const int64_t begin = 9;
            std::vector<float> got(len), want(len);
            epi.applyBlock(anchor.data<float>() + begin, got.data(), begin,
                           len);
            for (int64_t i = 0; i < len; ++i)
                want[i] = epi.apply(anchor.data<float>()[begin + i],
                                    begin + i);
            EXPECT_EQ(firstBitDifference(got.data(), want.data(), len), -1)
                << ec.name << " len " << len;
            // In place, as the GEMM epilogue runs it.
            std::vector<float> inplace(anchor.data<float>() + begin,
                                       anchor.data<float>() + begin + len);
            epi.applyBlock(inplace.data(), inplace.data(), begin, len);
            EXPECT_EQ(firstBitDifference(inplace.data(), want.data(), len),
                      -1)
                << ec.name << " in place, len " << len;
        }
    }
}

TEST(FusedBlockBitIdentity, ElementwiseKernelsMatchOpTable)
{
    Rng rng(29);
    Tensor a = Tensor::randomUniform(Shape({3, 200}), rng, -3.0f, 3.0f);
    Tensor b = Tensor::randomUniform(Shape({3, 200}), rng, 0.5f, 3.0f);
    Tensor row = Tensor::randomUniform(Shape({1, 200}), rng, 0.5f, 3.0f);
    AttrMap attrs;
    for (const char* name : {"Relu", "Sigmoid", "Tanh", "Exp", "Softplus",
                             "Round", "Not", "LeakyRelu", "Clip"}) {
        Tensor out(DType::kFloat32, a.shape());
        ewUnary(name, a, &out, attrs);
        FusedInstr ins = elementwiseInstr(name, attrs);
        for (int64_t i = 0; i < a.numElements(); ++i) {
            float want = applyFusedOpcode(ins, a.data<float>()[i], 0.0f);
            ASSERT_EQ(std::memcmp(&out.data<float>()[i], &want, 4), 0)
                << name << " at " << i;
        }
    }
    for (const char* name : {"Add", "Sub", "Mul", "Div", "Pow", "Min", "Max",
                             "Mod"}) {
        for (const Tensor* rhs : {&b, &row}) {
            Tensor out(DType::kFloat32, a.shape());
            ewBinary(name, a, *rhs, &out);
            FusedInstr ins = elementwiseInstr(name, attrs);
            for (int64_t i = 0; i < a.numElements(); ++i) {
                float y = rhs == &b ? b.data<float>()[i]
                                    : row.data<float>()[i % 200];
                float want = applyFusedOpcode(ins, a.data<float>()[i], y);
                ASSERT_EQ(std::memcmp(&out.data<float>()[i], &want, 4), 0)
                    << name << " at " << i;
            }
        }
    }
    Tensor less(DType::kBool, a.shape());
    ewBinary("Less", a, row, &less);
    for (int64_t i = 0; i < a.numElements(); ++i)
        ASSERT_EQ(less.data<bool>()[i],
                  a.data<float>()[i] < row.data<float>()[i % 200]);
}

// ---- Vector expf against std::exp -----------------------------------
//
// kernels/vector_exp.h replays glibc's expf 16 lanes at a time. On an
// AVX-512F host every result must equal std::exp's bits; the block
// functions are called directly, so the tests hold the vector path even
// if its self-check had turned it off. bench/expf_exhaustive covers all
// 2^32 patterns; this is the sampled tier-1 version.

/** glibc's special-path edges and the values around them. */
std::vector<float>
expEdgeInputs()
{
    const float inf = std::numeric_limits<float>::infinity();
    uint32_t nan_bits[] = {0x7fc00000u, 0xffc00000u, 0x7fa00001u,
                           0x7fc12345u};
    std::vector<float> x = {
        0.0f, -0.0f, 0x1p-149f, -0x1p-149f, 0x1.fffffcp-127f,
        -0x1.fffffcp-127f, 0x1p-126f, 88.0f, -88.0f, 0x1.5ffffep6f,
        -0x1.5ffffep6f, 0x1.600002p6f, -0x1.600002p6f, 0x1.62e42ep6f,
        0x1.62e430p6f, -0x1.9fe368p6f, -0x1.9fe366p6f, -0x1.9fe36ap6f,
        -0x1.9d1d9ep6f, -0x1.9d1d9cp6f, -0x1.9d1da0p6f, inf, -inf,
        // The two inputs that differ when the reduction is not fused.
        0x1.04845ep+5f, -0x1.f8cbb2p+5f};
    for (uint32_t bits : nan_bits) {
        float f;
        std::memcpy(&f, &bits, sizeof f);
        x.push_back(f);
    }
    return x;
}

/** Every 4096th bit pattern (odd offset, so mantissas vary), then the
 *  edges; the length is not a multiple of 16. */
std::vector<float>
expSweepInputs()
{
    std::vector<float> x;
    for (uint64_t bits = 7; bits <= 0xFFFFFFFFu; bits += 4096) {
        uint32_t b = static_cast<uint32_t>(bits);
        float f;
        std::memcpy(&f, &b, sizeof f);
        x.push_back(f);
    }
    std::vector<float> edges = expEdgeInputs();
    x.insert(x.end(), edges.begin(), edges.end());
    return x;
}

/** Index of the first element of @p got that differs from
 *  @p want(x[i]) in its bits, or -1. */
template <typename Want>
int64_t
firstDifferenceFrom(const std::vector<float>& x, const std::vector<float>& got,
                    Want want)
{
    for (size_t i = 0; i < x.size(); ++i) {
        float w = want(x[i]);
        if (std::memcmp(&w, &got[i], sizeof w) != 0)
            return static_cast<int64_t>(i);
    }
    return -1;
}

TEST(VectorExp, SampledSweepMatchesStdExp)
{
    if (!hostHasAvx512f())
        GTEST_SKIP() << "no AVX-512F: the scalar std::exp path is in use";
    EXPECT_TRUE(vectorExpEnabled()) << "self-check rejected this libm";
    std::vector<float> x = expSweepInputs();
    int64_t n = static_cast<int64_t>(x.size());
    std::vector<float> got(x.size());
    expBlock(x.data(), got.data(), n);
    int64_t bad = firstDifferenceFrom(x, got, [](float v) {
        return std::exp(v);
    });
    EXPECT_EQ(bad, -1) << "x = " << (bad < 0 ? 0.0f : x[bad]);
    // In place, starting mid-vector.
    std::vector<float> inplace(x.begin() + 3, x.end());
    expBlock(inplace.data(), inplace.data(), n - 3);
    EXPECT_EQ(std::memcmp(inplace.data(), got.data() + 3, (n - 3) * 4), 0);
}

TEST(VectorExp, ExpBasedBlocksMatchOpTable)
{
    if (!hostHasAvx512f())
        GTEST_SKIP() << "no AVX-512F: the scalar std::exp path is in use";
    std::vector<float> x = expSweepInputs();
    int64_t n = static_cast<int64_t>(x.size());
    std::vector<float> got(x.size());
    auto table = [](FusedOpCode op) {
        return [op](float v) { return applyFusedOpcode(instr(op, 0), v, 0); };
    };
    sigmoidBlock(x.data(), got.data(), n);
    EXPECT_EQ(firstDifferenceFrom(x, got, table(FusedOpCode::kSigmoid)), -1);
    softplusBlock(x.data(), got.data(), n);
    EXPECT_EQ(firstDifferenceFrom(x, got, table(FusedOpCode::kSoftplus)),
              -1);
    for (float shift : {0.0f, -0.0f, 3.5f, -90.0f, 1e30f}) {
        expShiftedBlock(x.data(), shift, got.data(), n);
        EXPECT_EQ(firstDifferenceFrom(x, got,
                                      [shift](float v) {
                                          return std::exp(v - shift);
                                      }),
                  -1)
            << "shift " << shift;
    }
}

// ---- Row reductions against the reference loops ---------------------
//
// softmax (innermost axis), layerNorm and globalAvgPool run
// kernels/reduce.cpp's independent-rows path; each must equal its
// *Reference loop bit for bit (memcmp). Row lengths straddle the
// 16-lane vectors, row counts straddle the 8-row interleave, and the
// largest cases split across the pool.

const int64_t kRowLengths[] = {1, 2, 7, 15, 16, 17, 32, 48, 384, 784};
const int64_t kRowCounts[] = {1, 3, 8, 13, 37};

TEST(RowsBitIdentity, SoftmaxInnermostAxisMatchesReference)
{
    Rng rng(31);
    for (int64_t len : kRowLengths) {
        for (int64_t rows : kRowCounts) {
            Tensor x = Tensor::randomUniform(Shape({rows, len}), rng, -8.0f,
                                             8.0f);
            Tensor got(DType::kFloat32, x.shape());
            Tensor want(DType::kFloat32, x.shape());
            softmax(x, -1, &got);
            softmaxReference(x, -1, &want);
            expectBitIdentical(got, want,
                               "softmax " + x.shape().toString());
        }
    }
}

/** Rows the vector path must get exactly right or hand to the
 *  reference. */
TEST(RowsBitIdentity, SoftmaxSpecialRowsMatchReference)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float big = std::numeric_limits<float>::max();
    for (int64_t len : {int64_t{7}, int64_t{17}, int64_t{48}}) {
        // Each row starts from a base pattern, then plants its case.
        std::vector<std::vector<std::pair<int64_t, float>>> plants = {
            {},                                     // plain
            {{0, nan}},                             // NaN first
            {{len / 2, nan}},                       // NaN inside
            {{len - 1, inf}},                       // +inf
            {{1, -inf}},                            // one -inf
            {{0, 5.0f}, {len - 1, -200.0f}},        // > 88 below the max
            {{0, big}, {1, -big}},                  // x - max = -inf
            {{0, 0.0f}, {1, -0.0f}},                // +0 before -0
            {{0, -0.0f}, {1, 0.0f}},                // -0 before +0
            {{len - 1, 0.0f}, {0, -0.0f}},          // tie at the ends
        };
        int64_t rows = static_cast<int64_t>(plants.size()) + 3;
        Tensor x(DType::kFloat32, Shape({rows, len}));
        float* px = x.data<float>();
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t k = 0; k < len; ++k)
                px[r * len + k] = -1.0f - 0.25f * static_cast<float>(k % 5);
            if (r < static_cast<int64_t>(plants.size())) {
                for (auto [k, v] : plants[r])
                    px[r * len + k] = v;
            }
        }
        // All equal, all -inf, and -1e30 below a zero maximum.
        for (int64_t k = 0; k < len; ++k) {
            px[(rows - 3) * len + k] = 0.5f;
            px[(rows - 2) * len + k] = -inf;
            px[(rows - 1) * len + k] = k == 0 ? 0.0f : -1e30f;
        }
        Tensor got(DType::kFloat32, x.shape());
        Tensor want(DType::kFloat32, x.shape());
        softmax(x, 1, &got);
        softmaxReference(x, 1, &want);
        expectBitIdentical(got, want, "special rows, length " +
                                          std::to_string(len));
    }
}

TEST(RowsBitIdentity, SoftmaxOtherAxesTakeTheReference)
{
    Rng rng(37);
    Tensor x = Tensor::randomUniform(Shape({3, 17, 5}), rng, -8.0f, 8.0f);
    for (int axis : {0, 1}) {
        Tensor got(DType::kFloat32, x.shape());
        Tensor want(DType::kFloat32, x.shape());
        softmax(x, axis, &got);
        softmaxReference(x, axis, &want);
        expectBitIdentical(got, want, "axis " + std::to_string(axis));
    }
}

TEST(RowsBitIdentity, LayerNormMatchesReference)
{
    Rng rng(41);
    for (int64_t len : kRowLengths) {
        Tensor scale = Tensor::randomUniform(Shape({len}), rng, 0.5f, 1.5f);
        Tensor bias = Tensor::randomUniform(Shape({len}), rng, -1.0f, 1.0f);
        for (int64_t rows : kRowCounts) {
            Tensor x = Tensor::randomUniform(Shape({1, rows, len}), rng,
                                             -3.0f, 3.0f);
            if (rows == 13) {  // one NaN row and one +inf row
                x.data<float>()[2 * len] =
                    std::numeric_limits<float>::quiet_NaN();
                x.data<float>()[5 * len + len - 1] =
                    std::numeric_limits<float>::infinity();
            }
            Tensor got(DType::kFloat32, x.shape());
            Tensor want(DType::kFloat32, x.shape());
            layerNorm(x, scale, bias, 1e-5f, &got);
            layerNormReference(x, scale, bias, 1e-5f, &want);
            expectBitIdentical(got, want,
                               "layerNorm " + x.shape().toString());
        }
    }
}

TEST(RowsBitIdentity, GlobalAvgPoolMatchesReference)
{
    Rng rng(43);
    std::vector<int64_t> lengths(std::begin(kRowLengths),
                                 std::end(kRowLengths));
    lengths.push_back(4);  // a 2x2 pool
    for (int64_t len : lengths) {
        int64_t h = len == 4 ? 2 : len;
        int64_t w = len / h;
        for (int64_t rows : kRowCounts) {
            Tensor x = Tensor::randomUniform(Shape({1, rows, h, w}), rng,
                                             -3.0f, 3.0f);
            Tensor got(DType::kFloat32, Shape({1, rows, 1, 1}));
            Tensor want(DType::kFloat32, Shape({1, rows, 1, 1}));
            globalAvgPool(x, &got);
            globalAvgPoolReference(x, &want);
            expectBitIdentical(got, want,
                               "globalAvgPool " + x.shape().toString());
        }
    }
}

// ---- Layout ops against the strided-copy reference -----------------
//
// transpose, slice, concat, split, expandTo, tile and resizeNearest run
// stridedCopy; each must write exactly the bytes stridedCopyReference
// (the per-element divide/modulo loop) writes for the op's box, and
// leave every other byte of the output buffer alone. Element sizes 1,
// 4 and 8 bytes are the bool, f32 and i64 dtypes.

const DType kCopyDtypes[] = {DType::kBool, DType::kFloat32, DType::kInt64};

/** Bytes that no copy writes, so a stray or missing write shows. */
constexpr uint8_t kSentinel = 0xA5;

/** A tensor of seeded random bytes (0/1 for bool). */
Tensor
randomTensor(DType dtype, const std::vector<int64_t>& dims, uint64_t seed)
{
    Tensor t(dtype, Shape(dims));
    Rng rng(seed);
    auto* p = static_cast<uint8_t*>(t.raw());
    for (size_t i = 0; i < t.byteSize(); ++i)
        p[i] = static_cast<uint8_t>(
            rng.uniformInt(0, dtype == DType::kBool ? 1 : 255));
    return t;
}

/** An output-sized tensor filled with kSentinel. */
Tensor
sentinelTensor(DType dtype, const std::vector<int64_t>& dims)
{
    Tensor t(dtype, Shape(dims));
    if (t.byteSize() > 0)
        std::memset(t.raw(), kSentinel, t.byteSize());
    return t;
}

void
expectSameBytes(const Tensor& got, const Tensor& want,
                const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    if (got.byteSize() == 0)
        return;
    EXPECT_EQ(std::memcmp(got.raw(), want.raw(), got.byteSize()), 0)
        << what;
}

std::string
describe(DType dtype, const std::vector<int64_t>& dims,
         const std::vector<int64_t>& arg = {})
{
    return std::string(dtypeName(dtype)) + Shape(dims).toString() +
           Shape(arg).toString();
}

TEST(StridedCopy, MatchesReferenceOnRandomBoxes)
{
    // Random boxes of rank 0-6 with extents 0, 1 and primes. The
    // destination is a permuted layout with padding; each source dim is
    // broadcast (stride 0), reversed (negative stride) or a permuted
    // padded layout. Element sizes 1, 4 and 8 cover every typed path,
    // 2 and 3 the reference fallback.
    const int64_t extents[] = {0, 1, 1, 2, 3, 5, 7, 13};
    const size_t sizes[] = {1, 2, 3, 4, 8};
    Rng rng(24);
    for (int trial = 0; trial < 400; ++trial) {
        int rank = static_cast<int>(rng.uniformInt(0, 6));
        std::vector<int64_t> dims(rank);
        for (int64_t& n : dims)
            n = extents[rng.uniformInt(trial < 40 ? 0 : 1, 7)];
        size_t esz = sizes[rng.uniformInt(0, 4)];

        // Strides of a padded layout of dims in a random order.
        auto layout = [&](std::vector<int64_t>* strides) {
            std::vector<int> order(rank);
            std::iota(order.begin(), order.end(), 0);
            for (int i = rank - 1; i > 0; --i)
                std::swap(order[i], order[rng.uniformInt(0, i)]);
            int64_t span = 1;
            strides->assign(rank, 0);
            for (int i = rank - 1; i >= 0; --i) {
                (*strides)[order[i]] = span;
                span *= dims[order[i]] + rng.uniformInt(0, 1);
            }
            return span;
        };
        std::vector<int64_t> dst_strides, src_strides;
        int64_t dst_span = layout(&dst_strides);
        int64_t src_span = layout(&src_strides);
        int64_t src_base = 0;
        for (int d = 0; d < rank; ++d) {
            int64_t kind = rng.uniformInt(0, 5);
            if (kind == 0) {
                src_strides[d] = 0;
            } else if (kind == 1 && dims[d] > 0) {
                src_base += (dims[d] - 1) * src_strides[d];
                src_strides[d] = -src_strides[d];
            }
        }

        std::vector<uint8_t> src(src_span * esz);
        for (uint8_t& b : src)
            b = static_cast<uint8_t>(rng.uniformInt(0, 255));
        std::vector<uint8_t> got(dst_span * esz, kSentinel);
        std::vector<uint8_t> want(got);
        const uint8_t* from = src.data() + src_base * esz;
        stridedCopy(got.data(), dst_strides, from, src_strides, dims, esz);
        stridedCopyReference(want.data(), dst_strides, from, src_strides,
                             dims, esz);
        EXPECT_TRUE(got == want)
            << "trial " << trial << ": dims " << Shape(dims).toString()
            << " dst " << Shape(dst_strides).toString() << " src "
            << Shape(src_strides).toString() << " esz " << esz;
    }
}

TEST(StridedCopy, RowsOverSplitThresholdMatchReference)
{
    // Copies of 256 KiB and more are split by rows across the pool: a
    // transpose with prime extents (284 KiB to 2.2 MiB by dtype), rows of
    // 130 KiB (longer than one split chunk), and a broadcast fill.
    for (DType dtype : kCopyDtypes) {
        size_t esz = dtypeSize(dtype);
        std::vector<int64_t> dims = {3, 331, 293};
        Tensor in = randomTensor(dtype, dims, 7);
        std::vector<int64_t> perm = {2, 0, 1};
        std::vector<int64_t> odims = {293, 3, 331};
        Tensor got = sentinelTensor(dtype, odims);
        Tensor want = sentinelTensor(dtype, odims);
        transpose(in, perm, &got);
        auto is = Shape(dims).strides();
        stridedCopyReference(want.raw(), Shape(odims).strides(), in.raw(),
                             {is[2], is[0], is[1]}, odims, esz);
        expectSameBytes(got, want, describe(dtype, dims, perm));

        int64_t row = (130 << 10) / static_cast<int64_t>(esz);
        std::vector<int64_t> rows = {5, row};
        Tensor a = randomTensor(dtype, rows, 8);
        Tensor b = randomTensor(dtype, {5, 3}, 9);
        std::vector<int64_t> joined = {5, row + 3};
        Tensor got_cat = sentinelTensor(dtype, joined);
        Tensor want_cat = sentinelTensor(dtype, joined);
        concat({a, b}, 1, &got_cat);
        auto js = Shape(joined).strides();
        stridedCopyReference(want_cat.raw(), js, a.raw(),
                             Shape(rows).strides(), rows, esz);
        stridedCopyReference(
            static_cast<uint8_t*>(want_cat.raw()) + row * esz, js, b.raw(),
            {3, 1}, {5, 3}, esz);
        expectSameBytes(got_cat, want_cat, describe(dtype, rows));

        Tensor col = randomTensor(dtype, {row, 1}, 10);
        std::vector<int64_t> wide = {row, 4};
        Tensor got_b = sentinelTensor(dtype, wide);
        Tensor want_b = sentinelTensor(dtype, wide);
        expandTo(col, &got_b);
        stridedCopyReference(want_b.raw(), Shape(wide).strides(), col.raw(),
                             {1, 0}, wide, esz);
        expectSameBytes(got_b, want_b, describe(dtype, wide));
    }
}

/** transpose(@p dims, @p perm) against the reference, every dtype. */
void
expectTransposeMatches(const std::vector<int64_t>& dims,
                       const std::vector<int64_t>& perm, uint64_t seed)
{
    auto is = Shape(dims).strides();
    std::vector<int64_t> odims, src_strides;
    for (int64_t p : perm) {
        odims.push_back(dims[p]);
        src_strides.push_back(is[p]);
    }
    for (DType dtype : kCopyDtypes) {
        Tensor in = randomTensor(dtype, dims, seed);
        Tensor got = sentinelTensor(dtype, odims);
        Tensor want = sentinelTensor(dtype, odims);
        transpose(in, perm, &got);
        stridedCopyReference(want.raw(), Shape(odims).strides(), in.raw(),
                             src_strides, odims, dtypeSize(dtype));
        expectSameBytes(got, want, describe(dtype, dims, perm));
    }
}

TEST(LayoutOps, TransposeEveryPermutationUpToRank4)
{
    const std::vector<std::vector<int64_t>> shapes = {
        {}, {7}, {0}, {3, 5}, {1, 13}, {2, 3, 5}, {4, 1, 3}, {0, 2, 3},
        {2, 3, 5, 7}, {1, 4, 1, 6}, {3, 2, 0, 5}};
    uint64_t seed = 0;
    for (const auto& dims : shapes) {
        std::vector<int64_t> perm(dims.size());
        std::iota(perm.begin(), perm.end(), 0);
        do {
            expectTransposeMatches(dims, perm, ++seed);
        } while (std::next_permutation(perm.begin(), perm.end()));
    }
}

TEST(LayoutOps, TransposeRanks5And6)
{
    Rng rng(5);
    for (int trial = 0; trial < 24; ++trial) {
        int rank = 5 + trial % 2;
        std::vector<int64_t> dims(rank), perm(rank);
        for (int d = 0; d < rank; ++d) {
            dims[d] = rng.uniformInt(1, 5);
            perm[d] = d;
        }
        for (int i = rank - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.uniformInt(0, i)]);
        expectTransposeMatches(dims, perm, 100 + trial);
    }
}

TEST(LayoutOps, SliceStepsAndNegativeStarts)
{
    const std::vector<int64_t> dims = {7, 11, 5};
    auto is = Shape(dims).strides();
    uint64_t seed = 0;
    for (int64_t start : {-3, -1, 0, 1, 2}) {
        for (int64_t step = 1; step <= 3; ++step) {
            for (int axis = 0; axis < 3; ++axis) {
                int64_t first = start < 0 ? start + dims[axis] : start;
                std::vector<int64_t> odims = dims;
                odims[axis] = (dims[axis] - first + step - 1) / step;
                std::vector<int64_t> src_strides = is;
                src_strides[axis] *= step;
                for (DType dtype : kCopyDtypes) {
                    size_t esz = dtypeSize(dtype);
                    Tensor in = randomTensor(dtype, dims, ++seed);
                    Tensor got = sentinelTensor(dtype, odims);
                    Tensor want = sentinelTensor(dtype, odims);
                    slice(in, {start}, {dims[axis]}, {axis}, {step}, &got);
                    stridedCopyReference(
                        want.raw(), Shape(odims).strides(),
                        static_cast<const uint8_t*>(in.raw()) +
                            first * is[axis] * esz,
                        src_strides, odims, esz);
                    expectSameBytes(got, want,
                                    describe(dtype, dims,
                                             {start, step, axis}));
                }
            }
        }
    }
}

TEST(LayoutOps, ConcatAndSplitEveryAxis)
{
    const std::vector<int64_t> dims = {4, 5, 6};
    for (int axis = 0; axis < 3; ++axis) {
        // Parts of extents 1, 0 and the rest along the axis.
        std::vector<std::vector<int64_t>> parts(3, dims);
        parts[0][axis] = 1;
        parts[1][axis] = 0;
        parts[2][axis] = dims[axis] - 1;
        for (DType dtype : kCopyDtypes) {
            size_t esz = dtypeSize(dtype);
            auto os = Shape(dims).strides();
            std::vector<Tensor> ins;
            Tensor want = sentinelTensor(dtype, dims);
            int64_t offset = 0;
            for (size_t i = 0; i < parts.size(); ++i) {
                ins.push_back(randomTensor(dtype, parts[i], 30 + i));
                stridedCopyReference(
                    static_cast<uint8_t*>(want.raw()) +
                        offset * os[axis] * esz,
                    os, ins.back().raw(), Shape(parts[i]).strides(),
                    parts[i], esz);
                offset += parts[i][axis];
            }
            Tensor got = sentinelTensor(dtype, dims);
            concat(ins, axis, &got);
            expectSameBytes(got, want, describe(dtype, dims, {axis}));

            std::vector<Tensor> outs;
            for (const auto& p : parts)
                outs.push_back(sentinelTensor(dtype, p));
            split(want, axis, &outs);
            for (size_t i = 0; i < parts.size(); ++i)
                expectSameBytes(outs[i], ins[i],
                                describe(dtype, parts[i], {axis}));
        }
    }
}

TEST(LayoutOps, ExpandBroadcasts)
{
    const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
        cases = {{{}, {2, 3}},          {{1}, {7}},
                 {{3, 1, 5}, {2, 3, 4, 5}}, {{5, 1}, {5, 13}},
                 {{1, 6}, {11, 6}},     {{1, 1}, {1, 1}},
                 {{2, 1}, {2, 0}},      {{1, 3, 1}, {4, 3, 2}}};
    uint64_t seed = 50;
    for (const auto& [in_dims, out_dims] : cases) {
        auto is = Shape(in_dims).strides();
        std::vector<int64_t> src_strides(out_dims.size(), 0);
        size_t lead = out_dims.size() - in_dims.size();
        for (size_t i = 0; i < in_dims.size(); ++i)
            if (in_dims[i] != 1)
                src_strides[lead + i] = is[i];
        for (DType dtype : kCopyDtypes) {
            Tensor in = randomTensor(dtype, in_dims, ++seed);
            Tensor got = sentinelTensor(dtype, out_dims);
            Tensor want = sentinelTensor(dtype, out_dims);
            expandTo(in, &got);
            stridedCopyReference(want.raw(), Shape(out_dims).strides(),
                                 in.raw(), src_strides, out_dims,
                                 dtypeSize(dtype));
            expectSameBytes(got, want, describe(dtype, in_dims, out_dims));
        }
    }
}

TEST(LayoutOps, TileRepeats)
{
    // The last case keeps 10 dims after canonicalisation, more than
    // stridedCopy walks on the stack, so it takes the reference path.
    const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
        cases = {{{2, 3}, {1, 1}},       {{2, 3}, {2, 3}},
                 {{2, 3}, {3, 1}},       {{1, 5, 1}, {4, 1, 3}},
                 {{7}, {0}},             {{3, 2, 5}, {2, 2, 2}},
                 {{2, 3, 2, 3, 2}, {2, 2, 2, 2, 2}}};
    uint64_t seed = 70;
    for (const auto& [in_dims, reps] : cases) {
        // Reference: index the output as [rep_0, n_0, rep_1, n_1, ...].
        auto is = Shape(in_dims).strides();
        std::vector<int64_t> out_dims, box, dst_strides, src_strides;
        for (size_t d = 0; d < in_dims.size(); ++d)
            out_dims.push_back(in_dims[d] * reps[d]);
        auto os = Shape(out_dims).strides();
        for (size_t d = 0; d < in_dims.size(); ++d) {
            box.insert(box.end(), {reps[d], in_dims[d]});
            dst_strides.insert(dst_strides.end(),
                               {in_dims[d] * os[d], os[d]});
            src_strides.insert(src_strides.end(), {0, is[d]});
        }
        for (DType dtype : kCopyDtypes) {
            Tensor in = randomTensor(dtype, in_dims, ++seed);
            Tensor got = sentinelTensor(dtype, out_dims);
            Tensor want = sentinelTensor(dtype, out_dims);
            tile(in, reps, &got);
            stridedCopyReference(want.raw(), dst_strides, in.raw(),
                                 src_strides, box, dtypeSize(dtype));
            expectSameBytes(got, want, describe(dtype, in_dims, reps));
        }
    }
}

TEST(LayoutOps, ResizeScales1To4)
{
    const std::vector<int64_t> dims = {2, 3, 5, 7};
    uint64_t seed = 90;
    for (int64_t sh = 1; sh <= 4; ++sh) {
        for (int64_t sw = 1; sw <= 4; ++sw) {
            std::vector<int64_t> out_dims = {2, 3, 5 * sh, 7 * sw};
            for (DType dtype : kCopyDtypes) {
                Tensor in = randomTensor(dtype, dims, ++seed);
                Tensor got = sentinelTensor(dtype, out_dims);
                Tensor want = sentinelTensor(dtype, out_dims);
                resizeNearest(in, sh, sw, &got);
                // Output row y reads input row y / sh, column x column
                // x / sw: index the output as [n*c, h, sh, w, sw].
                std::vector<int64_t> box = {6, 5, sh, 7, sw};
                stridedCopyReference(want.raw(), Shape(box).strides(),
                                     in.raw(), {35, 7, 0, 1, 0}, box,
                                     dtypeSize(dtype));
                expectSameBytes(got, want,
                                describe(dtype, dims, {sh, sw}));
            }
        }
    }
}

// ---- Thread pool chunking -------------------------------------------

/** Runs @p total iterations at @p grain on @p pool and returns "" when
 *  every index ran exactly once in non-empty in-range chunks, else a
 *  description of the first fault. */
std::string
coverOnce(ThreadPool& pool, int64_t total, int64_t grain)
{
    std::vector<std::atomic<int>> hits(total);
    std::atomic<int> bad{0};
    pool.parallelFor(
        total,
        [&](int64_t begin, int64_t end) {
            if (begin < 0 || end > total || begin >= end) {
                bad.fetch_add(1);
                return;
            }
            for (int64_t i = begin; i < end; ++i)
                hits[i].fetch_add(1);
        },
        grain);
    if (bad.load() != 0)
        return "bad chunk";
    for (int64_t i = 0; i < total; ++i)
        if (hits[i].load() != 1)
            return "index " + std::to_string(i) + " ran " +
                   std::to_string(hits[i].load()) + " times";
    return "";
}

TEST(ThreadPoolChunks, EveryIndexOnceAndNoEmptyOrInvertedChunk)
{
    for (int threads = 1; threads <= 8; ++threads) {
        ThreadPool pool(threads);
        ASSERT_EQ(pool.numThreads(), threads);
        for (int64_t total = 1; total <= 64; ++total) {
            for (int64_t grain = 1; grain <= 8; ++grain)
                ASSERT_EQ(coverOnce(pool, total, grain), "")
                    << threads << " threads, total " << total << ", grain "
                    << grain;
        }
    }
}

TEST(ThreadPoolChunks, FiveOverFourThreadsRunsThreeChunks)
{
    // ceil(5 / 4) = 2 per chunk, so only three chunks cover the range.
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> ranges;
    pool.parallelFor(5, [&](int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    std::vector<std::pair<int64_t, int64_t>> want = {{0, 2}, {2, 4}, {4, 5}};
    EXPECT_EQ(ranges, want);
}

TEST(ThreadPoolChunks, OneThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1);
    int calls = 0;
    std::thread::id ran_on;
    pool.parallelFor(
        1000,
        [&](int64_t begin, int64_t end) {
            ++calls;
            ran_on = std::this_thread::get_id();
            EXPECT_EQ(begin, 0);
            EXPECT_EQ(end, 1000);
        },
        1);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// ---- Thread pool spin-then-park protocol ------------------------------

/** Long enough past the spin window that every worker has parked. */
constexpr auto kPastSpinWindow = ThreadPool::kSpinWindow * 25;

TEST(ThreadPoolWarm, ParkedWorkersRunEveryIndexOnce)
{
    for (int threads = 2; threads <= 8; ++threads) {
        ThreadPool pool(threads);
        for (int round = 0; round < 3; ++round) {
            std::this_thread::sleep_for(kPastSpinWindow);
            // The first call wakes parked workers; the second finds
            // them spinning.
            ASSERT_EQ(coverOnce(pool, 1000, 1), "")
                << threads << " threads, round " << round << ", parked";
            ASSERT_EQ(coverOnce(pool, 1000, 1), "")
                << threads << " threads, round " << round << ", spinning";
        }
    }
}

TEST(ThreadPoolWarm, ParkedWorkersAreWoken)
{
    // The caller can run every chunk itself, so a lost wake-up shows
    // only as lost parallelism: while the caller sleeps in one chunk, a
    // woken worker must take another.
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::this_thread::sleep_for(kPastSpinWindow);
        std::mutex mu;
        std::vector<std::thread::id> ran_on;
        pool.parallelFor(
            4,
            [&](int64_t, int64_t) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ran_on.push_back(std::this_thread::get_id());
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            },
            1);
        std::sort(ran_on.begin(), ran_on.end());
        ran_on.erase(std::unique(ran_on.begin(), ran_on.end()), ran_on.end());
        EXPECT_GE(ran_on.size(), 2u) << "round " << round;
    }
}

TEST(ThreadPoolWarm, ConcurrentCallersEachCoverTheirRange)
{
    ThreadPool pool(4);
    std::vector<std::string> faults(4);
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
        callers.emplace_back([&pool, &faults, c] {
            Rng rng(100 + c);
            for (int call = 0; call < 500 && faults[c].empty(); ++call) {
                int64_t total = rng.uniformInt(1, 3000);
                int64_t grain = rng.uniformInt(1, 64);
                std::string fault = coverOnce(pool, total, grain);
                if (!fault.empty())
                    faults[c] = "call " + std::to_string(call) + ", total " +
                                std::to_string(total) + ", grain " +
                                std::to_string(grain) + ": " + fault;
            }
        });
    }
    for (auto& t : callers)
        t.join();
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(faults[c], "") << "caller " << c;
}

TEST(ThreadPoolWarm, CallFromInsideAChunkCompletes)
{
    ThreadPool pool(4);
    std::atomic<int64_t> inner_iterations{0};
    std::atomic<int> inner_faults{0};
    pool.parallelFor(
        8,
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                if (!coverOnce(pool, 500, 8).empty())
                    inner_faults.fetch_add(1);
                inner_iterations.fetch_add(500);
            }
        },
        1);
    EXPECT_EQ(inner_faults.load(), 0);
    EXPECT_EQ(inner_iterations.load(), 8 * 500);
}

/** Seconds to destroy @p pool. */
double
secondsToDestroy(std::unique_ptr<ThreadPool> pool)
{
    auto start = std::chrono::steady_clock::now();
    pool.reset();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

TEST(ThreadPoolWarm, DestroyReturnsPromptlyWhileWorkersSpin)
{
    // Fresh, and right after a call: either way the workers are inside
    // their spin window. A stop the spin missed would hang the join.
    auto fresh = std::make_unique<ThreadPool>(4);
    EXPECT_LT(secondsToDestroy(std::move(fresh)), 1.0);
    auto used = std::make_unique<ThreadPool>(4);
    ASSERT_EQ(coverOnce(*used, 1000, 1), "");
    EXPECT_LT(secondsToDestroy(std::move(used)), 1.0);
}

TEST(ThreadPoolWarm, DestroyReturnsPromptlyAfterWorkersPark)
{
    auto pool = std::make_unique<ThreadPool>(4);
    ASSERT_EQ(coverOnce(*pool, 1000, 1), "");
    std::this_thread::sleep_for(kPastSpinWindow);
    EXPECT_LT(secondsToDestroy(std::move(pool)), 1.0);
}

/** User plus system CPU seconds of this process so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

TEST(ThreadPoolWarm, IdlePoolCostsUnderOnePercentOfACore)
{
    // After its workers' spin window an idle pool costs nothing: a
    // 500 ms sleep adds under 5 ms of process CPU time.
    ThreadPool pool(4);
    ASSERT_EQ(coverOnce(pool, 1000, 1), "");
    double before = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    double idle_cpu = processCpuSeconds() - before;
    EXPECT_LT(idle_cpu, 0.005) << idle_cpu * 1e3 << " ms of CPU";
}

}  // namespace
}  // namespace sod2
