#ifndef SOD2_PLANNING_EXECUTION_PLAN_H_
#define SOD2_PLANNING_EXECUTION_PLAN_H_

/**
 * @file
 * Static Execution Planning (SEP, paper §4.3).
 *
 * The computational graph admits many topological execution orders with
 * very different peak-memory footprints; finding the optimum is
 * NP-complete, so SoD2 (1) partitions the graph into sub-graphs at
 * operators whose output shape is nac — those can't be planned anyway —
 * and (2) plans each sub-graph by one of three regimes keyed on what RDP
 * could prove:
 *   - all shapes known constants  -> bounded exhaustive search
 *     (branch-and-bound over topological orders);
 *   - mixed known/symbolic/op-inferred -> the same search over a
 *     *symbolic footprint* where every symbol takes a nominal value
 *     (sound for comparison when shapes share the symbol set);
 *   - contains nac               -> keep the original order.
 */

#include <cstdint>
#include <vector>

#include "fusion/fusion_plan.h"
#include "rdp/rdp_analysis.h"

namespace sod2 {

/** Planning regime actually applied to a sub-graph (Figure 8's legend). */
enum class SubgraphClass {
    kAllKnown,    ///< exhaustive/optimal order search applied
    kMixedConst,  ///< symbolic-footprint search applied
    kNac,         ///< unplannable; original order kept
};

const char* subgraphClassName(SubgraphClass c);

/** One planned sub-graph over fusion-group indices. */
struct PlannedSubgraph
{
    std::vector<int> groupOrder;  ///< execution order (group indices)
    SubgraphClass cls = SubgraphClass::kAllKnown;
    /** Number of kernel code versions needed to cover this sub-graph's
     *  shape variability (1 when fully known; distinct symbolic dim
     *  expressions otherwise) — the Figure 8 "Mixed const (k)" metric. */
    int versionsNeeded = 1;
};

/** Whole-graph execution plan. */
struct ExecutionPlan
{
    /** Global group execution order (concatenated sub-graph orders). */
    std::vector<int> order;
    std::vector<PlannedSubgraph> subgraphs;

    int numSubgraphs() const { return static_cast<int>(subgraphs.size()); }
};

/** SEP tuning knobs. */
struct SepOptions
{
    bool enable = true;          ///< off = original topological order
    int exhaustiveLimit = 10;    ///< max groups for exhaustive search
    int maxSearchStates = 50000; ///< branch-and-bound state budget
    int64_t nominalSymbolValue = 128;  ///< symbol stand-in for mixed sgs
};

ExecutionPlan buildExecutionPlan(const Graph& graph, const RdpResult& rdp,
                                 const FusionPlan& fusion,
                                 const SepOptions& options);

}  // namespace sod2

#endif  // SOD2_PLANNING_EXECUTION_PLAN_H_
