/** End-to-end bit identity: each zoo model, at its smallest and largest
 *  legal size, must reproduce the output digests perfbench recorded
 *  (perfbench/digests.tsv) exactly. The inputs are rebuilt the way
 *  perfbench builds them: weights from Rng(1234), request inputs from
 *  an Rng seeded with the FNV-1a hash of (model, size), and an engine
 *  with default options on mobileCpu() timed in real time. The file is
 *  only read here. */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/run_context.h"
#include "core/sod2_engine.h"
#include "models/model_zoo.h"

namespace sod2 {
namespace {

/** perfbench's per-key input seed (perfbench/src/zoo.cpp). */
uint64_t
keySeed(const std::string& name, int64_t size)
{
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (unsigned char c : name)
        h = (h ^ c) * 1099511628211ULL;
    return h ^ (static_cast<uint64_t>(size) * 0x9e3779b97f4a7c15ULL);
}

struct Digest
{
    std::string shape;
    double sum = 0.0, l1 = 0.0, wsum = 0.0;
};

/** perfbench's digest of one output: sum, L1 norm and the
 *  position-weighted sum x[i] * (1 + i % 7), accumulated in double. */
Digest
digestOf(const Tensor& t)
{
    Digest d;
    for (int64_t dim : t.shape().dims())
        d.shape += (d.shape.empty() ? "" : "x") + std::to_string(dim);
    if (d.shape.empty())
        d.shape = "scalar";
    int64_t n = t.isValid() ? t.numElements() : 0;
    for (int64_t i = 0; i < n; ++i) {
        double x = 0.0;
        switch (t.dtype()) {
          case DType::kFloat32: x = t.data<float>()[i]; break;
          case DType::kInt64:
            x = static_cast<double>(t.data<int64_t>()[i]);
            break;
          case DType::kInt32: x = t.data<int32_t>()[i]; break;
          case DType::kBool: x = t.data<bool>()[i] ? 1.0 : 0.0; break;
        }
        d.sum += x;
        d.l1 += std::fabs(x);
        d.wsum += x * static_cast<double>(1 + i % 7);
    }
    return d;
}

using DigestKey = std::pair<std::string, int64_t>;

/** digests.tsv: model, size, output index, shape, sum, l1, wsum. */
std::map<DigestKey, std::vector<Digest>>
loadDigests()
{
    std::map<DigestKey, std::vector<Digest>> table;
    std::ifstream in(SOD2_PERFBENCH_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string model, size, index, sum, l1, wsum;
        Digest d;
        std::getline(fields, model, '\t');
        std::getline(fields, size, '\t');
        std::getline(fields, index, '\t');
        std::getline(fields, d.shape, '\t');
        std::getline(fields, sum, '\t');
        std::getline(fields, l1, '\t');
        std::getline(fields, wsum, '\t');
        d.sum = std::strtod(sum.c_str(), nullptr);
        d.l1 = std::strtod(l1.c_str(), nullptr);
        d.wsum = std::strtod(wsum.c_str(), nullptr);
        std::vector<Digest>& outs = table[{model, std::stoll(size)}];
        EXPECT_EQ(outs.size(), std::stoul(index)) << line;
        outs.push_back(d);
    }
    return table;
}

class DigestTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DigestTest, SmallestAndLargestSizeMatchPerfbenchExactly)
{
    static const std::map<DigestKey, std::vector<Digest>> kTable =
        loadDigests();
    ASSERT_FALSE(kTable.empty())
        << "cannot read " << SOD2_PERFBENCH_DIGESTS;

    const std::string& name = GetParam();
    Rng weights(1234);
    ModelSpec spec = buildModel(name, weights);
    std::set<int64_t> sizes;
    for (int64_t s = spec.minSize; s <= spec.maxSize; ++s)
        sizes.insert(spec.legalizeSize(s));

    Sod2Options opts;
    opts.rdp = spec.rdp;
    opts.device = DeviceProfile::mobileCpu();
    opts.device.simulated = false;
    Sod2Engine engine(spec.graph.get(), opts);
    RunContext ctx;
    for (int64_t size : {*sizes.begin(), *sizes.rbegin()}) {
        auto it = kTable.find({name, size});
        ASSERT_NE(it, kTable.end()) << name << "@" << size;
        Rng rng(keySeed(name, size));
        std::vector<Tensor> outputs = engine.run(ctx, spec.sample(rng, size));
        ASSERT_EQ(outputs.size(), it->second.size()) << name << "@" << size;
        for (size_t i = 0; i < outputs.size(); ++i) {
            Digest got = digestOf(outputs[i]);
            const Digest& want = it->second[i];
            SCOPED_TRACE(name + "@" + std::to_string(size) + " output " +
                         std::to_string(i));
            EXPECT_EQ(got.shape, want.shape);
            EXPECT_EQ(got.sum, want.sum);
            EXPECT_EQ(got.l1, want.l1);
            EXPECT_EQ(got.wsum, want.wsum);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, DigestTest, ::testing::ValuesIn(allModelNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string id = info.param;
        for (char& c : id)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return id;
    });

}  // namespace
}  // namespace sod2
