#ifndef PERFBENCH_ZOO_H_
#define PERFBENCH_ZOO_H_

/**
 * @file
 * The benchmark's view of the model zoo: fixed weights, the finite set
 * of request keys (model, primary size) and the inputs each key maps
 * to, and compiled engines with their fusion groups classified by
 * anchor op.
 *
 * A request's input data is a function of its key alone, so the output
 * digests recorded once (digests.tsv) cover every request any seed can
 * draw. The workload seed only picks keys.
 */

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/run_context.h"
#include "core/sod2_engine.h"
#include "models/model_zoo.h"

namespace perfbench {

/** Op class of a fusion group's anchor (the op that does the work). */
enum GroupClass { kConv = 0, kMatmul, kEltwise, kOther, kNumGroupClasses };

/** Model weights are fixed for every workload and seed. */
inline constexpr uint64_t kWeightSeed = 1234;

/** One compiled zoo model plus the client-side state that drives it. */
struct ZooModel
{
    sod2::ModelSpec spec;
    std::unique_ptr<sod2::Sod2Engine> engine;
    std::unique_ptr<sod2::RunContext> ctx;
    /** Legal primary sizes (image side / sequence length), ascending. */
    std::vector<int64_t> sizes;
    /** GroupClass of each fusion group, indexed like groupSeconds. */
    std::vector<int> groupClass;
};

/** Builds @p name with weights from Rng(kWeightSeed). */
sod2::ModelSpec buildSpec(const std::string& name);

/** Default Sod2Options on the real-time host CPU profile. */
sod2::Sod2Options engineOptions(const sod2::ModelSpec& spec);

/** Every size spec.sample can produce, ascending. */
std::vector<int64_t> legalSizes(const sod2::ModelSpec& spec);

/** The inputs of key (@p spec, @p size): spec.sample driven by an Rng
 *  seeded from the key. */
std::vector<sod2::Tensor> makeInputs(const sod2::ModelSpec& spec,
                                     int64_t size);

/** Compiles @p spec into a ZooModel (engine, context, group classes). */
ZooModel compileModel(sod2::ModelSpec spec);

/** Builds and compiles every model in @p names. */
std::vector<ZooModel> buildZoo(const std::vector<std::string>& names);

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T>& v, sod2::Rng& rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<size_t>(rng.uniformInt(
                                 0, static_cast<int64_t>(i) - 1))]);
}

/**
 * One pass over a size pool: every size once, in seeded order.
 * Workloads deal sizes in passes, so each size is equally likely, as
 * with independent uniform draws, but a seed cannot clump on a few.
 */
std::vector<int64_t> dealPass(const std::vector<int64_t>& pool,
                              sod2::Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_ZOO_H_
