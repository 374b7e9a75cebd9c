#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "runtime/interpreter.h"

namespace perfbench {

using namespace sod2;

namespace {

/** Tolerance of both checks: interpreter outputs elementwise
 *  (atol = rtol), digests relative to the output's L1 norm. */
constexpr float kTolerance = 1e-3f;
constexpr size_t kMaxErrors = 8;

std::string
shapeString(const Shape& s)
{
    std::string out;
    for (int64_t d : s.dims())
        out += (out.empty() ? "" : "x") + std::to_string(d);
    return out.empty() ? "scalar" : out;
}

double
elementAt(const Tensor& t, int64_t i)
{
    switch (t.dtype()) {
      case DType::kFloat32: return t.data<float>()[i];
      case DType::kInt64: return static_cast<double>(t.data<int64_t>()[i]);
      case DType::kInt32: return t.data<int32_t>()[i];
      case DType::kBool: return t.data<bool>()[i] ? 1.0 : 0.0;
    }
    return 0.0;
}

bool
digestClose(const Digest& got, const Digest& want)
{
    if (got.shape != want.shape)
        return false;
    double scale = std::max(want.l1, 1e-6);
    return std::fabs(got.sum - want.sum) <= kTolerance * scale &&
           std::fabs(got.l1 - want.l1) <= kTolerance * scale &&
           std::fabs(got.wsum - want.wsum) <= 7.0 * kTolerance * scale;
}

std::string
keyName(const std::string& model, int64_t size)
{
    return model + "@" + std::to_string(size);
}

}  // namespace

std::vector<Digest>
digestOf(const std::vector<Tensor>& outputs)
{
    std::vector<Digest> out;
    for (const Tensor& t : outputs) {
        Digest d;
        d.shape = shapeString(t.shape());
        int64_t n = t.isValid() ? t.numElements() : 0;
        for (int64_t i = 0; i < n; ++i) {
            double x = elementAt(t, i);
            d.sum += x;
            d.l1 += std::fabs(x);
            d.wsum += x * static_cast<double>(1 + i % 7);
        }
        out.push_back(d);
    }
    return out;
}

bool
outputsClose(const std::vector<Tensor>& a, const std::vector<Tensor>& b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].shape() != b[i].shape() || a[i].dtype() != b[i].dtype())
            return false;
        if (a[i].numElements() == 0)
            continue;
        if (!Tensor::allClose(a[i], b[i], kTolerance, kTolerance))
            return false;
    }
    return true;
}

int
recordDigests(ZooModel& m, std::FILE* out)
{
    int bad = 0;
    Interpreter interp(m.spec.graph.get(), InterpreterOptions{});
    for (int64_t size : m.sizes) {
        std::vector<Tensor> inputs = makeInputs(m.spec, size);
        std::vector<Tensor> got = m.engine->run(*m.ctx, inputs);
        std::vector<Digest> digests = digestOf(got);
        if (!outputsClose(got, interp.run(inputs))) {
            std::fprintf(stderr, "engine != interpreter on %s\n",
                         keyName(m.spec.name, size).c_str());
            ++bad;
            continue;
        }
        for (size_t i = 0; i < digests.size(); ++i) {
            const Digest& d = digests[i];
            std::fprintf(out, "%s\t%lld\t%zu\t%s\t%.17g\t%.17g\t%.17g\n",
                         m.spec.name.c_str(), static_cast<long long>(size),
                         i, d.shape.c_str(), d.sum, d.l1, d.wsum);
        }
    }
    return bad;
}

Oracle::Oracle(const std::string& digest_path)
{
    std::ifstream in(digest_path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string model;
        long long size = 0;
        size_t index = 0;
        Digest d;
        std::getline(row, model, '\t');
        row >> size >> index >> d.shape >> d.sum >> d.l1 >> d.wsum;
        if (!row)
            continue;
        std::vector<Digest>& outs = table_[{model, size}];
        if (outs.size() <= index)
            outs.resize(index + 1);
        outs[index] = d;
    }
}

void
Oracle::fail(const std::string& what)
{
    ++mismatches_;
    if (errors_.size() < kMaxErrors)
        errors_.push_back(what);
}

bool
Oracle::check(const ZooModel& m, int64_t size,
              const std::vector<Tensor>& outputs)
{
    Key key{m.spec.name, size};
    auto it = table_.find(key);
    std::vector<Digest> got = digestOf(outputs);
    bool ok = it != table_.end() && it->second.size() == got.size();
    for (size_t i = 0; ok && i < got.size(); ++i)
        ok = digestClose(got[i], it->second[i]);
    if (!ok) {
        fail("digest mismatch on " + keyName(key.first, size));
        return false;
    }

    Seen& seen = seen_[key];
    if (seen.requests++ == 0) {
        specs_.try_emplace(m.spec.name, m.spec);
        for (const Tensor& t : outputs)
            seen.first.push_back(t.isValid() ? t.clone() : t);
        return true;
    }
    if (!outputsClose(outputs, seen.first)) {
        fail("output differs from earlier run of " +
             keyName(key.first, size));
        return false;
    }
    return true;
}

void
Oracle::finish()
{
    std::map<std::string, std::unique_ptr<Interpreter>> interps;
    for (auto& [key, seen] : seen_) {
        const ModelSpec& spec = specs_.at(key.first);
        std::unique_ptr<Interpreter>& interp = interps[key.first];
        if (!interp)
            interp = std::make_unique<Interpreter>(spec.graph.get(),
                                                   InterpreterOptions{});
        std::vector<Tensor> want = interp->run(makeInputs(spec, key.second));
        ++interp_checks_;
        if (!outputsClose(seen.first, want)) {
            fail("engine != interpreter on " +
                 keyName(key.first, key.second));
            mismatches_ += seen.requests - 1;
        }
    }
    seen_.clear();
}

}  // namespace perfbench
