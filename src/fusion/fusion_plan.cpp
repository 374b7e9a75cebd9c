#include "fusion/fusion_plan.h"

#include <algorithm>
#include <map>
#include <set>

#include "kernels/elementwise.h"
#include "support/logging.h"

namespace sod2 {
namespace {

/** Equality proof a fusion mode accepts. */
enum class ProofMode { kNone, kStaticOnly, kSymbolic };

bool
sameShapeUnderMode(const RdpResult& rdp, ValueId a, ValueId b,
                   ProofMode mode)
{
    if (mode == ProofMode::kNone)
        return false;
    if (mode == ProofMode::kStaticOnly) {
        const ShapeInfo& sa = rdp.shapeOf(a);
        const ShapeInfo& sb = rdp.shapeOf(b);
        return sa.isFullyStatic() && sb.isFullyStatic() &&
               sa.staticDims() == sb.staticDims();
    }
    return rdp.provablySameShape(a, b);
}

bool
broadcastableUnderMode(const RdpResult& rdp, ValueId from, ValueId to,
                       ProofMode mode)
{
    if (mode == ProofMode::kNone)
        return false;
    if (mode == ProofMode::kStaticOnly) {
        const ShapeInfo& sf = rdp.shapeOf(from);
        const ShapeInfo& st = rdp.shapeOf(to);
        if (!sf.isFullyStatic() || !st.isFullyStatic())
            return false;
    }
    return provablyBroadcastableTo(rdp, from, to);
}

/** Scalar f32 constants fold into heavy-op epilogues. */
bool
isScalarConstant(const Graph& g, ValueId v)
{
    const Value& val = g.value(v);
    return val.isConstant() && val.constant.numElements() == 1 &&
           val.constant.dtype() == DType::kFloat32;
}

bool
isF32(const Graph& g, ValueId v)
{
    return g.value(v).dtype == DType::kFloat32;
}

struct Builder
{
    const Graph& g;
    const RdpResult& rdp;
    ProofMode mode;

    std::vector<int> group_of;        // per node; -1 unassigned
    std::vector<FusionGroup> groups;  // tombstoned entries have no nodes

    Builder(const Graph& graph, const RdpResult& r, ProofMode m)
        : g(graph), rdp(r), mode(m), group_of(graph.numNodes(), -1)
    {}

    ValueId
    tailValue(int gi) const
    {
        return g.node(groups[gi].tail()).outputs[0];
    }

    /** Every consumer of @p v is @p next or inside one of @p gis. */
    bool
    consumedOnlyWithin(ValueId v, NodeId next,
                       const std::set<int>& gis) const
    {
        if (g.value(v).isGraphOutput)
            return false;  // must stay materialized
        for (NodeId c : g.value(v).consumers) {
            if (c == next)
                continue;
            if (group_of[c] >= 0 && gis.count(group_of[c]))
                continue;
            return false;
        }
        return true;
    }

    int
    freshGroup(NodeId n, GroupKind kind)
    {
        FusionGroup grp;
        grp.kind = kind;
        grp.nodes = {n};
        groups.push_back(std::move(grp));
        group_of[n] = static_cast<int>(groups.size()) - 1;
        return group_of[n];
    }

    /**
     * Tries to absorb elementwise node @p n into (the merge of) its
     * producers' groups. The resulting group keeps a single escaping
     * value — n's output — so every in-group value consumed elsewhere
     * blocks the fusion.
     */
    bool
    tryAbsorb(NodeId n)
    {
        const Node& node = g.node(n);
        if (node.outputs.size() != 1 || !isF32(g, node.outputs[0]))
            return false;
        bool unary = isUnaryElementwise(node.op);
        bool binary =
            isBinaryElementwise(node.op) && !isComparison(node.op);
        if (!unary && !binary)
            return false;

        // Producer groups of the operands. A group is *mergeable* when
        // its single escaping value (the tail) feeds n and nothing
        // else; otherwise its value materializes anyway and the operand
        // is treated as an external read.
        std::set<int> producer_groups;
        for (ValueId in : node.inputs) {
            NodeId p = g.value(in).producer;
            if (p != kNoNode && group_of[p] >= 0)
                producer_groups.insert(group_of[p]);
        }
        if (producer_groups.empty())
            return false;

        std::set<int> mergeable;
        for (int gi : producer_groups) {
            if (groups[gi].kind == GroupKind::kSingle)
                continue;
            ValueId tail = tailValue(gi);
            if (std::find(node.inputs.begin(), node.inputs.end(), tail) ==
                    node.inputs.end() ||
                !consumedOnlyWithin(tail, n, {gi}))
                continue;
            mergeable.insert(gi);
        }
        if (mergeable.empty())
            return false;

        // Heavy epilogues are per-element maps over one anchor. Besides
        // scalar constants they may read *provably same-shape* externals
        // at the same flat index (residual adds) — the proof is mode-
        // dependent, which is what lets RDP fuse conv+add+relu blocks a
        // static fuser cannot (paper §4.2). Anything else demotes the
        // heavy group to an external read.
        int heavy = -1;
        for (int gi : mergeable)
            if (groups[gi].kind == GroupKind::kHeavyWithEpilogue)
                heavy = gi;
        if (heavy >= 0) {
            bool pure_epilogue = mergeable.size() == 1;
            ValueId anchor_space = tailValue(heavy);
            for (ValueId in : node.inputs) {
                NodeId p = g.value(in).producer;
                bool in_heavy = p != kNoNode && group_of[p] == heavy;
                if (in_heavy || isScalarConstant(g, in))
                    continue;
                if (isF32(g, in) &&
                    sameShapeUnderMode(rdp, in, anchor_space, mode))
                    continue;  // same-shape external: flat-index read
                pure_epilogue = false;
            }
            if (!pure_epilogue) {
                mergeable.erase(heavy);
                heavy = -1;
                if (mergeable.empty())
                    return false;
            }
        }
        const std::set<int>& producer_groups_final = mergeable;

        // Shape legality. Elementwise semantics guarantee the output
        // shape equals the broadcast of the operands, so the iteration
        // space is preserved whenever every operand is (a) produced
        // inside the group, (b) a scalar constant, or (c) *provably*
        // broadcast-compatible with the group's space. Case (c) is
        // where the fusion modes differ (paper Figure 4): a static
        // fuser (SFusion) needs fully known constant shapes; RDP
        // accepts symbolic equality/broadcast proofs. Unary chains are
        // shape-oblivious and fuse under every mode.
        ValueId space = tailValue(*producer_groups_final.begin());
        for (ValueId in : node.inputs) {
            NodeId p = g.value(in).producer;
            bool in_group =
                p != kNoNode && group_of[p] >= 0 &&
                producer_groups_final.count(group_of[p]) > 0;
            if (in_group) {
                if (!consumedOnlyWithin(in, n, producer_groups_final))
                    return false;
                continue;
            }
            if (isScalarConstant(g, in))
                continue;
            if (!isF32(g, in))
                return false;
            if (heavy >= 0) {
                // Epilogues read same-shape externals at the flat
                // output index; broadcast reads need the chain form.
                if (!sameShapeUnderMode(rdp, in, space, mode))
                    return false;
                continue;
            }
            if (!sameShapeUnderMode(rdp, in, space, mode) &&
                !broadcastableUnderMode(rdp, in, space, mode)) {
                return false;
            }
        }

        // Commit: merge all mergeable groups into the first, append n.
        auto it = producer_groups_final.begin();
        int target = *it++;
        for (; it != producer_groups_final.end(); ++it) {
            FusionGroup& victim = groups[*it];
            for (NodeId vn : victim.nodes) {
                groups[target].nodes.push_back(vn);
                group_of[vn] = target;
            }
            victim.nodes.clear();  // tombstone
        }
        groups[target].nodes.push_back(n);
        group_of[n] = target;
        return true;
    }

    FusionPlan
    run()
    {
        for (NodeId n : g.topoOrder()) {
            const Node& node = g.node(n);
            if (mode != ProofMode::kNone && tryAbsorb(n))
                continue;
            if (mode != ProofMode::kNone &&
                (node.op == "Conv" || node.op == "MatMul")) {
                freshGroup(n, GroupKind::kHeavyWithEpilogue);
                continue;
            }
            bool fusible_seed =
                mode != ProofMode::kNone && node.outputs.size() == 1 &&
                isF32(g, node.outputs[0]) &&
                (isUnaryElementwise(node.op) ||
                 (isBinaryElementwise(node.op) &&
                  !isComparison(node.op)));
            freshGroup(n, fusible_seed ? GroupKind::kElementwiseChain
                                       : GroupKind::kSingle);
        }

        FusionPlan plan;
        plan.materialized.assign(g.numValues(), true);
        // Rebuild groups in a topological order of their tails, dropping
        // tombstones and demoting singleton chains. Nodes inside merged
        // groups must themselves be re-sorted topologically.
        std::map<NodeId, int> node_pos;
        {
            auto order = g.topoOrder();
            for (size_t i = 0; i < order.size(); ++i)
                node_pos[order[i]] = static_cast<int>(i);
        }
        std::vector<int> live;
        for (size_t gi = 0; gi < groups.size(); ++gi) {
            if (groups[gi].nodes.empty())
                continue;
            std::sort(groups[gi].nodes.begin(), groups[gi].nodes.end(),
                      [&](NodeId a, NodeId b) {
                          return node_pos[a] < node_pos[b];
                      });
            live.push_back(static_cast<int>(gi));
        }
        std::sort(live.begin(), live.end(), [&](int a, int b) {
            return node_pos[groups[a].tail()] < node_pos[groups[b].tail()];
        });
        for (int gi : live) {
            FusionGroup grp = std::move(groups[gi]);
            if (grp.nodes.size() == 1 &&
                grp.kind == GroupKind::kElementwiseChain)
                grp.kind = GroupKind::kSingle;
            if (grp.nodes.size() >= 2) {
                ValueId tail = g.node(grp.tail()).outputs[0];
                for (NodeId n : grp.nodes)
                    for (ValueId v : g.node(n).outputs)
                        if (v != tail && !g.value(v).isGraphOutput)
                            plan.materialized[v] = false;
            }
            plan.groups.push_back(std::move(grp));
        }
        return plan;
    }
};

}  // namespace

int
FusionPlan::fusedAwayValues(const Graph& g) const
{
    int count = 0;
    for (ValueId v = 0; v < g.numValues(); ++v)
        if (!materialized[v])
            ++count;
    return count;
}

FusionPlan
buildNoFusionPlan(const Graph& graph)
{
    static const RdpResult empty({}, {}, 0);
    return Builder(graph, empty, ProofMode::kNone).run();
}

FusionPlan
buildStaticFusionPlan(const Graph& graph, const RdpResult& rdp)
{
    return Builder(graph, rdp, ProofMode::kStaticOnly).run();
}

FusionPlan
buildRdpFusionPlan(const Graph& graph, const RdpResult& rdp)
{
    return Builder(graph, rdp, ProofMode::kSymbolic).run();
}

bool
provablyBroadcastableTo(const RdpResult& rdp, ValueId from, ValueId to)
{
    const ShapeInfo& sf = rdp.shapeOf(from);
    const ShapeInfo& st = rdp.shapeOf(to);
    if (!sf.isRanked() || !st.isRanked() || sf.rank() > st.rank())
        return false;
    for (int i = 0; i < sf.rank(); ++i) {
        const DimValue& df = sf.dim(sf.rank() - 1 - i);
        const DimValue& dt = st.dim(st.rank() - 1 - i);
        if (df.isKnownConst() && df.knownValue() == 1)
            continue;
        if (df.hasExpr() && dt.hasExpr() && df.expr()->equals(*dt.expr()))
            continue;
        return false;
    }
    return true;
}

}  // namespace sod2
