#ifndef SOD2_FUSION_FUSED_EXECUTOR_H_
#define SOD2_FUSION_FUSED_EXECUTOR_H_

/**
 * @file
 * Compiled execution of fusion groups.
 *
 * An elementwise chain compiles to a short register program evaluated
 * block by block over the output — the "green box" of paper Figure 4:
 * one pass, no intermediate tensors. A heavy group runs its Conv/MatMul
 * anchor through the regular kernel, which applies the compiled
 * program as an epilogue to each block it finishes.
 */

#include <cstdint>
#include <vector>

#include "fusion/fusion_plan.h"
#include "kernels/fused_program.h"
#include "runtime/op_executor.h"

namespace sod2 {

/** A fusion group lowered to executable form. */
class CompiledGroup
{
  public:
    /** Lowers @p group of @p graph; throws if an op is not fusible. */
    static CompiledGroup compile(const Graph& graph,
                                 const FusionGroup& group);

    GroupKind kind() const { return kind_; }
    /** External input values, in read order (anchor inputs first for
     *  heavy groups). Constants are included. */
    const std::vector<ValueId>& externalInputs() const { return inputs_; }
    /** The single escaping value. */
    ValueId outputValue() const { return output_; }
    /** Nodes covered by this group. */
    const std::vector<NodeId>& nodes() const { return nodes_; }

    /**
     * Executes the group. @p ext aligns with externalInputs(). For
     * kSingle groups this simply dispatches executeNode and returns all
     * outputs; fused kinds return exactly one tensor.
     */
    std::vector<Tensor> run(const Graph& graph,
                            const std::vector<Tensor>& ext,
                            const TensorAllocator& alloc,
                            const KernelConfig& config) const;

    /** Instruction count (0 for kSingle). */
    int programSize() const { return static_cast<int>(program_.size()); }

  private:
    GroupKind kind_ = GroupKind::kSingle;
    std::vector<NodeId> nodes_;
    std::vector<ValueId> inputs_;
    ValueId output_ = -1;
    std::vector<FusedInstr> program_;
    /** External input indices the program actually reads (for heavy
     *  groups these may alias anchor inputs, e.g. a residual add of
     *  the conv's own input). */
    std::vector<int> usedExternals_;
    /** Register index holding each node's result (by position in
     *  nodes_, offset by one for heavy anchors). */
    int anchorRegister_ = -1;
};

/** A whole plan lowered group by group. */
std::vector<CompiledGroup> compilePlan(const Graph& graph,
                                       const FusionPlan& plan);

}  // namespace sod2

#endif  // SOD2_FUSION_FUSED_EXECUTOR_H_
