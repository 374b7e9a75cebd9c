#include "zoo.h"

#include <set>

#include "common.h"
#include "fusion/fusion_plan.h"

namespace perfbench {

using namespace sod2;

namespace {

uint64_t
keySeed(const std::string& name, int64_t size)
{
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (unsigned char c : name)
        h = (h ^ c) * 1099511628211ULL;
    return h ^ (static_cast<uint64_t>(size) * 0x9e3779b97f4a7c15ULL);
}

bool
isElementwiseOp(const std::string& op)
{
    static const std::set<std::string> kOps = {
        "Add",  "Sub",   "Mul",      "Div",     "Pow",  "Min",
        "Max",  "Relu",  "LeakyRelu", "Sigmoid", "Tanh", "Erf",
        "Exp",  "Log",   "Sqrt",     "Neg",     "Abs",  "Round",
        "Clip", "Identity", "Softplus", "Cast",  "Where", "Not",
        "Equal", "Less", "Greater",
    };
    return kOps.count(op) != 0;
}

std::vector<int>
classifyGroups(const Sod2Engine& engine)
{
    const Graph& g = *engine.graph();
    std::vector<int> out;
    for (const FusionGroup& grp : engine.fusionPlan().groups) {
        const std::string& op = g.node(grp.nodes.front()).op;
        if (op == "Conv")
            out.push_back(kConv);
        else if (op == "MatMul" || op == "Gemm")
            out.push_back(kMatmul);
        else if (grp.kind == GroupKind::kElementwiseChain ||
                 isElementwiseOp(op))
            out.push_back(kEltwise);
        else
            out.push_back(kOther);
    }
    return out;
}

}  // namespace

ModelSpec
buildSpec(const std::string& name)
{
    Rng rng(kWeightSeed);
    return buildModel(name, rng);
}

Sod2Options
engineOptions(const ModelSpec& spec)
{
    Sod2Options opts;
    opts.rdp = spec.rdp;
    opts.device = DeviceProfile::mobileCpu();
    opts.device.simulated = false;
    return opts;
}

std::vector<int64_t>
legalSizes(const ModelSpec& spec)
{
    std::set<int64_t> sizes;
    for (int64_t s = spec.minSize; s <= spec.maxSize; ++s)
        sizes.insert(spec.legalizeSize(s));
    return {sizes.begin(), sizes.end()};
}

std::vector<Tensor>
makeInputs(const ModelSpec& spec, int64_t size)
{
    Rng rng(keySeed(spec.name, size));
    return spec.sample(rng, size);
}

ZooModel
compileModel(ModelSpec spec)
{
    ZooModel m;
    m.spec = std::move(spec);
    m.engine = std::make_unique<Sod2Engine>(m.spec.graph.get(),
                                            engineOptions(m.spec));
    m.ctx = std::make_unique<RunContext>();
    m.sizes = legalSizes(m.spec);
    m.groupClass = classifyGroups(*m.engine);
    return m;
}

std::vector<int64_t>
dealPass(const std::vector<int64_t>& pool, Rng& rng)
{
    std::vector<int64_t> pass(pool);
    shuffle(pass, rng);
    return pass;
}

std::vector<ZooModel>
buildZoo(const std::vector<std::string>& names)
{
    std::vector<ZooModel> zoo;
    for (const std::string& name : names) {
        ModelSpec spec;
        {
            ScopedSpan span("models.build." + name);
            spec = buildSpec(name);
        }
        ScopedSpan span("core.engine_ctor." + name);
        zoo.push_back(compileModel(std::move(spec)));
    }
    return zoo;
}

}  // namespace perfbench
