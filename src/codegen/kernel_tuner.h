#ifndef SOD2_CODEGEN_KERNEL_TUNER_H_
#define SOD2_CODEGEN_KERNEL_TUNER_H_

/**
 * @file
 * Multi-version code generation (paper §4.4.2).
 *
 * Hotspot kernels (GEMM/CONV) want different tilings for different
 * operand shapes. Generating one version per concrete shape is
 * infeasible for dynamic models; SoD2 instead buckets shapes into a few
 * classes — fat, regular, skinny — generates one tuned version per
 * class with a Genetic-Algorithm auto-tuner (as in DNNFusion), and
 * selects among them at runtime from the RDP-predicted shape. The
 * expensive tuning run is also what the MNN-like baseline re-pays on
 * every re-initialization (Table 1's "ST" column).
 */

#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.h"
#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "rdp/rdp_analysis.h"
#include "support/rng.h"

namespace sod2 {

/** Matrix shape classes the tuner specializes for. */
enum class ShapeClass { kSkinny = 0, kRegular = 1, kFat = 2 };

const char* shapeClassName(ShapeClass c);

/** Classifies a GEMM problem: skinny (few rows), fat (rows >> cols),
 *  regular otherwise. */
ShapeClass classifyGemm(int64_t m, int64_t n, int64_t k);

/** The per-class version table an engine ships with. */
struct TunedVersions
{
    std::map<ShapeClass, GemmVariant> gemm;
    std::map<ShapeClass, ConvVariant> conv;

    const GemmVariant& gemmFor(int64_t m, int64_t n, int64_t k) const;
    const ConvVariant& convFor(int64_t batch_x_oc) const;

    /** Sensible hand-tuned defaults (no tuning cost). */
    static TunedVersions defaults();
    /** Single-version table (the no-MVC ablation). */
    static TunedVersions singleVersion();
};

/**
 * Symbolic version selector for one execution group's head operator:
 * the RDP dimension expressions that, once evaluated under an input's
 * symbol bindings, classify the problem and pick the kernel version.
 * Built once at compile time so that runtime selection is a handful of
 * expression evaluations rather than a per-run shape inspection — and
 * therefore cacheable per shape signature.
 */
struct VersionSelector
{
    enum class Kind { kNone, kGemm, kConv };
    Kind kind = Kind::kNone;
    /** GEMM problem dims (kind == kGemm). */
    SymExprPtr m, n, k;
    /** batch * out_channels (kind == kConv). */
    SymExprPtr batchTimesOc;
};

/** One group's resolved kernel version for a concrete shape signature.
 *  kDefault means "selector unavailable" (nac/EDO shapes): the executor
 *  falls back to classifying the concrete runtime shapes. */
struct GroupKernelChoice
{
    enum class Kind { kDefault, kGemm, kConv };
    Kind kind = Kind::kDefault;
    GemmVariant gemm;  ///< valid when kind == kGemm
    ConvVariant conv;  ///< valid when kind == kConv
};

/**
 * Builds one selector per entry of @p group_heads (the head node of each
 * execution group, kNoNode for groups without one). Groups whose head is
 * not a versioned op, or whose operand dims carry no RDP expression,
 * yield Kind::kNone.
 */
std::vector<VersionSelector>
buildVersionSelectors(const Graph& graph,
                      const std::vector<NodeId>& group_heads,
                      const RdpResult& rdp);

/**
 * Evaluates @p selectors under @p bindings and picks each group's
 * version from @p versions. Unresolvable selectors yield kDefault.
 */
std::vector<GroupKernelChoice>
resolveVersions(const std::vector<VersionSelector>& selectors,
                const TunedVersions& versions,
                const std::map<std::string, int64_t>& bindings);

/** GA auto-tuner configuration. */
struct TunerOptions
{
    int population = 6;
    int generations = 3;
    int64_t probeM = 128, probeN = 128, probeK = 128;  ///< probe problem
    uint64_t seed = 17;
};

/**
 * Tunes a GemmVariant for the given problem size by measuring candidate
 * variants on synthetic data (crossover + mutation over the tile space).
 * Deliberately expensive — this is the "schedule and tuning" cost
 * dynamic frameworks re-pay on re-initialization.
 */
GemmVariant tuneGemmVariant(int64_t m, int64_t n, int64_t k,
                            const TunerOptions& options);

/** Runs the GA once per shape class and returns the version table. */
TunedVersions tuneAllVersions(const TunerOptions& options);

}  // namespace sod2

#endif  // SOD2_CODEGEN_KERNEL_TUNER_H_
