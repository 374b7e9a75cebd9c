#include "codegen/kernel_tuner.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "support/logging.h"
#include "tensor/tensor.h"

namespace sod2 {

const char*
shapeClassName(ShapeClass c)
{
    switch (c) {
      case ShapeClass::kSkinny: return "skinny";
      case ShapeClass::kRegular: return "regular";
      case ShapeClass::kFat: return "fat";
    }
    return "?";
}

ShapeClass
classifyGemm(int64_t m, int64_t n, int64_t k)
{
    (void)k;
    if (m <= 16)
        return ShapeClass::kSkinny;
    if (m >= 8 * std::max<int64_t>(1, n))
        return ShapeClass::kFat;
    return ShapeClass::kRegular;
}

const GemmVariant&
TunedVersions::gemmFor(int64_t m, int64_t n, int64_t k) const
{
    auto it = gemm.find(classifyGemm(m, n, k));
    if (it == gemm.end())
        it = gemm.find(ShapeClass::kRegular);
    SOD2_CHECK(it != gemm.end()) << "no GEMM version available";
    return it->second;
}

const ConvVariant&
TunedVersions::convFor(int64_t batch_x_oc) const
{
    ShapeClass cls = batch_x_oc <= 8 ? ShapeClass::kSkinny
                                     : ShapeClass::kRegular;
    auto it = conv.find(cls);
    if (it == conv.end())
        it = conv.find(ShapeClass::kRegular);
    SOD2_CHECK(it != conv.end()) << "no Conv version available";
    return it->second;
}

TunedVersions
TunedVersions::defaults()
{
    TunedVersions v;
    v.gemm[ShapeClass::kSkinny] = GemmVariant{16, 256, 64, false};
    v.gemm[ShapeClass::kRegular] = GemmVariant{64, 64, 64, true};
    v.gemm[ShapeClass::kFat] = GemmVariant{128, 32, 64, true};
    v.conv[ShapeClass::kSkinny] = ConvVariant{1, true};
    v.conv[ShapeClass::kRegular] = ConvVariant{8, true};
    return v;
}

TunedVersions
TunedVersions::singleVersion()
{
    TunedVersions v;
    v.gemm[ShapeClass::kRegular] = GemmVariant{64, 64, 64, true};
    v.conv[ShapeClass::kRegular] = ConvVariant{8, true};
    return v;
}

namespace {

/** dim(@p axis) of @p shape as an expression, or null when the shape is
 *  unranked / the axis is out of range / the dim carries no expression.
 *  Negative axes count from the back. */
SymExprPtr
dimExpr(const ShapeInfo& shape, int axis)
{
    if (!shape.isRanked())
        return nullptr;
    if (axis < 0)
        axis += shape.rank();
    if (axis < 0 || axis >= shape.rank())
        return nullptr;
    const DimValue& dv = shape.dim(axis);
    return dv.hasExpr() ? dv.expr() : nullptr;
}

}  // namespace

std::vector<VersionSelector>
buildVersionSelectors(const Graph& graph,
                      const std::vector<NodeId>& group_heads,
                      const RdpResult& rdp)
{
    std::vector<VersionSelector> selectors(group_heads.size());
    for (size_t gi = 0; gi < group_heads.size(); ++gi) {
        NodeId head_id = group_heads[gi];
        if (head_id == kNoNode)
            continue;
        const Node& head = graph.node(head_id);
        VersionSelector& sel = selectors[gi];
        if (head.op == "MatMul" && head.inputs.size() >= 2) {
            const ShapeInfo& sa = rdp.shapeOf(head.inputs[0]);
            const ShapeInfo& sb = rdp.shapeOf(head.inputs[1]);
            sel.m = dimExpr(sa, -2);
            sel.n = dimExpr(sb, -1);
            sel.k = dimExpr(sa, -1);
            if (sel.m && sel.n && sel.k)
                sel.kind = VersionSelector::Kind::kGemm;
        } else if (head.op == "Conv" && head.inputs.size() >= 2) {
            SymExprPtr batch = dimExpr(rdp.shapeOf(head.inputs[0]), 0);
            SymExprPtr oc = dimExpr(rdp.shapeOf(head.inputs[1]), 0);
            if (batch && oc) {
                sel.batchTimesOc = batch * oc;
                sel.kind = VersionSelector::Kind::kConv;
            }
        }
    }
    return selectors;
}

std::vector<GroupKernelChoice>
resolveVersions(const std::vector<VersionSelector>& selectors,
                const TunedVersions& versions,
                const std::map<std::string, int64_t>& bindings)
{
    std::vector<GroupKernelChoice> choices(selectors.size());
    for (size_t gi = 0; gi < selectors.size(); ++gi) {
        const VersionSelector& sel = selectors[gi];
        GroupKernelChoice& choice = choices[gi];
        if (sel.kind == VersionSelector::Kind::kGemm) {
            auto m = sel.m->evaluate(bindings);
            auto n = sel.n->evaluate(bindings);
            auto k = sel.k->evaluate(bindings);
            if (m && n && k) {
                choice.kind = GroupKernelChoice::Kind::kGemm;
                choice.gemm = versions.gemmFor(*m, *n, *k);
            }
        } else if (sel.kind == VersionSelector::Kind::kConv) {
            auto boc = sel.batchTimesOc->evaluate(bindings);
            if (boc) {
                choice.kind = GroupKernelChoice::Kind::kConv;
                choice.conv = versions.convFor(*boc);
            }
        }
    }
    return choices;
}

namespace {

const int64_t kTileChoices[] = {16, 32, 64, 128, 256};

GemmVariant
randomVariant(Rng& rng)
{
    GemmVariant v;
    v.tileM = kTileChoices[rng.uniformInt(0, 4)];
    v.tileN = kTileChoices[rng.uniformInt(0, 4)];
    v.tileK = kTileChoices[rng.uniformInt(0, 4)];
    v.parallel = rng.bernoulli(0.7f);
    return v;
}

GemmVariant
crossover(const GemmVariant& a, const GemmVariant& b, Rng& rng)
{
    GemmVariant v;
    v.tileM = rng.bernoulli(0.5f) ? a.tileM : b.tileM;
    v.tileN = rng.bernoulli(0.5f) ? a.tileN : b.tileN;
    v.tileK = rng.bernoulli(0.5f) ? a.tileK : b.tileK;
    v.parallel = rng.bernoulli(0.5f) ? a.parallel : b.parallel;
    if (rng.bernoulli(0.3f))  // mutation
        v.tileM = kTileChoices[rng.uniformInt(0, 4)];
    if (rng.bernoulli(0.3f))
        v.tileN = kTileChoices[rng.uniformInt(0, 4)];
    return v;
}

double
measure(const GemmVariant& v, int64_t m, int64_t n, int64_t k,
        const Tensor& a, const Tensor& b, Tensor* c)
{
    auto t0 = std::chrono::steady_clock::now();
    gemmF32(a.data<float>(), b.data<float>(), c->data<float>(), m, n, k, v);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

GemmVariant
tuneGemmVariant(int64_t m, int64_t n, int64_t k, const TunerOptions& options)
{
    Rng rng(options.seed);
    Tensor a = Tensor::randomUniform(Shape({m, k}), rng);
    Tensor b = Tensor::randomUniform(Shape({k, n}), rng);
    Tensor c(DType::kFloat32, Shape({m, n}));

    struct Scored
    {
        GemmVariant variant;
        double time;
    };
    std::vector<Scored> population;
    population.push_back({GemmVariant{}, 0.0});
    for (int i = 1; i < options.population; ++i)
        population.push_back({randomVariant(rng), 0.0});

    for (int gen = 0; gen < options.generations; ++gen) {
        for (auto& s : population)
            s.time = measure(s.variant, m, n, k, a, b, &c);
        std::sort(population.begin(), population.end(),
                  [](const Scored& x, const Scored& y) {
                      return x.time < y.time;
                  });
        // Elitism: keep the top half, refill with crossovers.
        size_t keep = std::max<size_t>(2, population.size() / 2);
        for (size_t i = keep; i < population.size(); ++i) {
            const GemmVariant& pa =
                population[rng.uniformInt(0, keep - 1)].variant;
            const GemmVariant& pb =
                population[rng.uniformInt(0, keep - 1)].variant;
            population[i].variant = crossover(pa, pb, rng);
        }
    }
    for (auto& s : population)
        s.time = measure(s.variant, m, n, k, a, b, &c);
    return std::min_element(population.begin(), population.end(),
                            [](const Scored& x, const Scored& y) {
                                return x.time < y.time;
                            })
        ->variant;
}

TunedVersions
tuneAllVersions(const TunerOptions& options)
{
    TunedVersions v = TunedVersions::defaults();
    // Probe one representative problem per shape class.
    v.gemm[ShapeClass::kSkinny] =
        tuneGemmVariant(8, options.probeN, options.probeK, options);
    v.gemm[ShapeClass::kRegular] = tuneGemmVariant(
        options.probeM, options.probeN, options.probeK, options);
    v.gemm[ShapeClass::kFat] =
        tuneGemmVariant(8 * options.probeM, 32, options.probeK, options);
    return v;
}

}  // namespace sod2
