#include "planning/execution_plan.h"

#include <algorithm>
#include <map>
#include <set>

#include "support/logging.h"

namespace sod2 {

const char*
subgraphClassName(SubgraphClass c)
{
    switch (c) {
      case SubgraphClass::kAllKnown: return "all-known";
      case SubgraphClass::kMixedConst: return "mixed-const";
      case SubgraphClass::kNac: return "nac";
    }
    return "?";
}

namespace {

/** Materialized output values of one fusion group. */
std::vector<ValueId>
groupOutputs(const Graph& g, const FusionPlan& fusion, int gi)
{
    std::vector<ValueId> out;
    const FusionGroup& grp = fusion.groups[gi];
    for (NodeId n : grp.nodes)
        for (ValueId v : g.node(n).outputs)
            if (fusion.materialized[v])
                out.push_back(v);
    return out;
}

/** Classification of a sub-graph's shape knowledge. */
SubgraphClass
classify(const Graph& g, const RdpResult& rdp, const FusionPlan& fusion,
         const std::vector<int>& members, int* versions)
{
    bool all_known = true;
    std::set<std::string> dim_templates;
    for (int gi : members) {
        for (NodeId n : fusion.groups[gi].nodes) {
            if (OpRegistry::instance().get(g.node(n).op).cls ==
                DynamismClass::kEDO) {
                *versions = 0;
                return SubgraphClass::kNac;
            }
        }
    }
    for (int gi : members) {
        for (ValueId v : groupOutputs(g, fusion, gi)) {
            const ShapeInfo& s = rdp.shapeOf(v);
            if (!s.isRanked() || s.hasNac() || !s.hasAllExprs()) {
                *versions = 0;
                return SubgraphClass::kNac;
            }
            for (const auto& d : s.dims()) {
                if (!d.isKnownConst()) {
                    all_known = false;
                    dim_templates.insert(d.expr()->toString());
                }
            }
        }
    }
    if (all_known) {
        *versions = 1;
        return SubgraphClass::kAllKnown;
    }
    *versions = std::max(1, static_cast<int>(dim_templates.size()));
    return SubgraphClass::kMixedConst;
}

/**
 * Order-search context for one sub-graph: group-level dependencies plus
 * per-group output byte sizes (symbols replaced by a nominal value).
 */
struct Search
{
    int n = 0;
    int scenarios = 1;
    std::vector<std::vector<int>> deps;      // deps[i] = local preds of i
    std::vector<std::vector<int>> users;     // users[i] = local succs
    /** out_bytes[k][i]: bytes of group i under symbol scenario k. A
     *  single nominal value misleads when a sub-graph mixes unrelated
     *  symbols (e.g. image extents vs sequence length), so orders are
     *  scored as the *sum of peaks across scenarios*. */
    std::vector<std::vector<int64_t>> out_bytes;
    std::vector<int> external_uses;          // uses outside the subgraph
    int states_budget = 0;

    // Best found so far.
    int64_t best_peak = INT64_MAX;
    std::vector<int> best_order;

    int64_t
    sum(const std::vector<int64_t>& v) const
    {
        int64_t total = 0;
        for (int64_t x : v)
            total += x;
        return total;
    }

    /**
     * Branch-and-bound DFS over topological orders minimizing the
     * scenario-summed peak of live bytes: a group's output stays live
     * until all local users have run (outputs with external users stay
     * live to the end).
     */
    void
    dfs(std::vector<int>& order, std::vector<int>& remaining_users,
        std::vector<int>& indegree, std::vector<int64_t>& live,
        std::vector<int64_t>& peak)
    {
        if (sum(peak) >= best_peak || states_budget <= 0) {
            --states_budget;
            return;
        }
        --states_budget;
        if (static_cast<int>(order.size()) == n) {
            best_peak = sum(peak);
            best_order = order;
            return;
        }
        for (int i = 0; i < n; ++i) {
            if (indegree[i] != 0 || remaining_users[i] >= 0)
                continue;  // not ready or already scheduled
            std::vector<int64_t> saved_live = live;
            std::vector<int64_t> saved_peak = peak;
            for (int k = 0; k < scenarios; ++k) {
                live[k] += out_bytes[k][i];
                peak[k] = std::max(peak[k], live[k]);
            }
            for (int p : deps[i]) {
                if (--remaining_users[p] == 0 &&
                    external_uses[p] == 0) {
                    for (int k = 0; k < scenarios; ++k)
                        live[k] -= out_bytes[k][p];
                }
            }
            for (int u : users[i])
                --indegree[u];
            remaining_users[i] = static_cast<int>(users[i].size());
            if (remaining_users[i] == 0 && external_uses[i] == 0) {
                for (int k = 0; k < scenarios; ++k)
                    live[k] -= out_bytes[k][i];
            }
            order.push_back(i);

            dfs(order, remaining_users, indegree, live, peak);

            // Undo.
            order.pop_back();
            for (int u : users[i])
                ++indegree[u];
            for (int p : deps[i])
                ++remaining_users[p];
            remaining_users[i] = -1;
            live = saved_live;
            peak = saved_peak;
        }
    }

    /** Scenario-summed peak of a complete order (model replay). */
    int64_t
    score(const std::vector<int>& order) const
    {
        std::vector<int> remaining(n, -1);
        std::vector<int64_t> live(scenarios, 0);
        std::vector<int64_t> peak(scenarios, 0);
        std::vector<int> users_left(n, 0);
        for (int i = 0; i < n; ++i)
            users_left[i] = static_cast<int>(users[i].size());
        for (int i : order) {
            for (int k = 0; k < scenarios; ++k) {
                live[k] += out_bytes[k][i];
                peak[k] = std::max(peak[k], live[k]);
            }
            for (int p : deps[i]) {
                if (--users_left[p] == 0 && external_uses[p] == 0)
                    for (int k = 0; k < scenarios; ++k)
                        live[k] -= out_bytes[k][p];
            }
            if (users[i].empty() && external_uses[i] == 0)
                for (int k = 0; k < scenarios; ++k)
                    live[k] -= out_bytes[k][i];
            remaining[i] = 1;
        }
        int64_t total = 0;
        for (int k = 0; k < scenarios; ++k)
            total += peak[k];
        return total;
    }

    /** Greedy list scheduling: repeatedly pick the ready group that
     *  minimizes scenario-summed live bytes after scheduling. */
    std::vector<int>
    greedy()
    {
        std::vector<int> indegree(n, 0);
        std::vector<int> remaining_users(n, -1);
        for (int i = 0; i < n; ++i)
            indegree[i] = static_cast<int>(deps[i].size());
        std::vector<int> order;
        std::vector<int64_t> live(scenarios, 0);
        while (static_cast<int>(order.size()) < n) {
            int best = -1;
            int64_t best_live = INT64_MAX;
            for (int i = 0; i < n; ++i) {
                if (indegree[i] != 0 || remaining_users[i] >= 0)
                    continue;
                int64_t after = 0;
                for (int k = 0; k < scenarios; ++k)
                    after += live[k] + out_bytes[k][i];
                for (int p : deps[i]) {
                    int uses = 0;
                    for (int u : users[p])
                        if (remaining_users[u] < 0 && u != i)
                            ++uses;
                    if (uses == 0 && external_uses[p] == 0)
                        for (int k = 0; k < scenarios; ++k)
                            after -= out_bytes[k][p];
                }
                if (after < best_live) {
                    best_live = after;
                    best = i;
                }
            }
            SOD2_CHECK_GE(best, 0) << "cyclic sub-graph dependency";
            // Commit.
            for (int p : deps[best]) {
                bool last = true;
                for (int u : users[p])
                    if (remaining_users[u] < 0 && u != best)
                        last = false;
                if (last && external_uses[p] == 0)
                    for (int k = 0; k < scenarios; ++k)
                        live[k] -= out_bytes[k][p];
            }
            remaining_users[best] = 1;  // mark scheduled
            for (int u : users[best])
                --indegree[u];
            bool has_local_user = false;
            for (int u : users[best])
                if (remaining_users[u] < 0)
                    has_local_user = true;
            for (int k = 0; k < scenarios; ++k)
                live[k] += out_bytes[k][best];
            if (!has_local_user && external_uses[best] == 0)
                for (int k = 0; k < scenarios; ++k)
                    live[k] -= out_bytes[k][best];
            order.push_back(best);
        }
        return order;
    }
};

int64_t
groupBytes(const Graph& g, const RdpResult& rdp, const FusionPlan& fusion,
           int gi, const std::map<std::string, int64_t>& nominal)
{
    int64_t total = 0;
    for (ValueId v : groupOutputs(g, fusion, gi)) {
        auto dims = rdp.shapeOf(v).evaluate(nominal);
        if (!dims)
            return -1;
        total += Shape(*dims).numElements() *
                 static_cast<int64_t>(dtypeSize(g.value(v).dtype));
    }
    return total;
}

}  // namespace

ExecutionPlan
buildExecutionPlan(const Graph& graph, const RdpResult& rdp,
                   const FusionPlan& fusion, const SepOptions& options)
{
    int num_groups = fusion.numGroups();

    // Group-level producer maps.
    std::vector<int> group_of_value(graph.numValues(), -1);
    std::vector<int> group_of_node(graph.numNodes(), -1);
    for (int gi = 0; gi < num_groups; ++gi) {
        for (NodeId n : fusion.groups[gi].nodes) {
            group_of_node[n] = gi;
            for (ValueId v : graph.node(n).outputs)
                group_of_value[v] = gi;
        }
    }

    // Group dependency edges (via materialized values only — internal
    // fused values never cross groups by construction).
    std::vector<std::set<int>> preds(num_groups);
    for (int gi = 0; gi < num_groups; ++gi) {
        for (NodeId n : fusion.groups[gi].nodes) {
            for (ValueId in : graph.node(n).inputs) {
                int pg = group_of_value[in];
                if (pg >= 0 && pg != gi)
                    preds[gi].insert(pg);
            }
        }
    }

    ExecutionPlan plan;
    if (!options.enable) {
        PlannedSubgraph sg;
        for (int gi = 0; gi < num_groups; ++gi) {
            plan.order.push_back(gi);
            sg.groupOrder.push_back(gi);
        }
        sg.cls = SubgraphClass::kNac;
        sg.versionsNeeded = 0;
        plan.subgraphs.push_back(std::move(sg));
        return plan;
    }

    // --- Partition at nac boundaries -----------------------------------
    // A group is a boundary when any of its materialized outputs has an
    // unresolvable (nac) shape, or it contains an Execution-Determined
    // operator (control flow, NonZero, ...): planning past either is
    // impossible, and — as §4.3 observes — such operators are exactly
    // the natural partition points.
    auto isBoundary = [&](int gi) {
        for (NodeId n : fusion.groups[gi].nodes) {
            if (OpRegistry::instance().get(graph.node(n).op).cls ==
                DynamismClass::kEDO)
                return true;
        }
        for (ValueId v : groupOutputs(graph, fusion, gi)) {
            const ShapeInfo& s = rdp.shapeOf(v);
            if (!s.isRanked() || s.hasNac())
                return true;
        }
        return false;
    };

    std::vector<std::vector<int>> partitions;
    std::vector<int> current;
    for (int gi = 0; gi < num_groups; ++gi) {
        if (isBoundary(gi)) {
            if (!current.empty())
                partitions.push_back(std::move(current));
            current.clear();
            partitions.push_back({gi});
        } else {
            current.push_back(gi);
        }
    }
    if (!current.empty())
        partitions.push_back(std::move(current));

    // Symbol scenarios for order scoring (§4.3 regime 2). A single
    // nominal value is misleading when shapes are built from *unrelated*
    // symbols, so each candidate order is scored under several bindings:
    // all-small, all-nominal, and two skewed assignments.
    std::vector<std::map<std::string, int64_t>> scenarios;
    std::vector<std::string> syms = rdp.symbolNames();
    std::sort(syms.begin(), syms.end());
    auto mk = [&](auto&& value_of) {
        std::map<std::string, int64_t> m;
        for (size_t i = 0; i < syms.size(); ++i)
            m[syms[i]] = value_of(i);
        return m;
    };
    scenarios.push_back(mk([&](size_t) { return int64_t{16}; }));
    scenarios.push_back(
        mk([&](size_t) { return options.nominalSymbolValue; }));
    scenarios.push_back(
        mk([&](size_t i) { return i % 2 ? int64_t{16} : int64_t{256}; }));
    scenarios.push_back(
        mk([&](size_t i) { return i % 2 ? int64_t{256} : int64_t{16}; }));

    // --- Plan each partition -------------------------------------------
    for (const auto& members : partitions) {
        PlannedSubgraph sg;
        sg.cls = classify(graph, rdp, fusion, members, &sg.versionsNeeded);

        if (sg.cls == SubgraphClass::kNac ||
            static_cast<int>(members.size()) <= 1) {
            sg.groupOrder = members;
            plan.subgraphs.push_back(std::move(sg));
            continue;
        }

        // Build the local search problem.
        Search search;
        search.n = static_cast<int>(members.size());
        std::map<int, int> local_of;
        for (int i = 0; i < search.n; ++i)
            local_of[members[i]] = i;
        search.scenarios = static_cast<int>(scenarios.size());
        search.deps.resize(search.n);
        search.users.resize(search.n);
        search.out_bytes.assign(scenarios.size(),
                                std::vector<int64_t>(search.n, 0));
        search.external_uses.assign(search.n, 0);
        bool sizes_ok = true;
        for (int i = 0; i < search.n; ++i) {
            int gi = members[i];
            for (int pg : preds[gi]) {
                auto it = local_of.find(pg);
                if (it != local_of.end()) {
                    search.deps[i].push_back(it->second);
                    search.users[it->second].push_back(i);
                }
            }
            for (size_t k = 0; k < scenarios.size() && sizes_ok; ++k) {
                int64_t bytes =
                    groupBytes(graph, rdp, fusion, gi, scenarios[k]);
                if (bytes < 0) {
                    sizes_ok = false;
                    break;
                }
                search.out_bytes[k][i] = bytes;
            }
            if (!sizes_ok)
                break;
            // Outputs consumed by later sub-graphs (or graph outputs)
            // stay live for the whole partition.
            for (ValueId v : groupOutputs(graph, fusion, gi)) {
                if (graph.value(v).isGraphOutput) {
                    search.external_uses[i] = 1;
                    continue;
                }
                for (NodeId c : graph.value(v).consumers)
                    if (!local_of.count(group_of_node[c]))
                        search.external_uses[i] = 1;
            }
        }

        if (!sizes_ok) {
            sg.groupOrder = members;
            plan.subgraphs.push_back(std::move(sg));
            continue;
        }

        // The incumbent is the original (topological) order: the
        // search and the greedy fallback must only ever improve on it
        // under the scenario model.
        std::vector<int> identity(search.n);
        for (int i = 0; i < search.n; ++i)
            identity[i] = i;
        std::vector<int> local_order = identity;
        int64_t local_score = search.score(identity);

        if (search.n <= options.exhaustiveLimit) {
            search.states_budget = options.maxSearchStates;
            search.best_peak = local_score;
            search.best_order = identity;
            std::vector<int> order;
            std::vector<int> remaining_users(search.n, -1);
            std::vector<int> indegree(search.n, 0);
            for (int i = 0; i < search.n; ++i)
                indegree[i] = static_cast<int>(search.deps[i].size());
            std::vector<int64_t> live(search.scenarios, 0);
            std::vector<int64_t> peak(search.scenarios, 0);
            search.dfs(order, remaining_users, indegree, live, peak);
            local_order = search.best_order;
        } else {
            std::vector<int> greedy_order = search.greedy();
            if (search.score(greedy_order) < local_score)
                local_order = greedy_order;
        }

        sg.groupOrder.reserve(local_order.size());
        for (int li : local_order)
            sg.groupOrder.push_back(members[li]);
        plan.subgraphs.push_back(std::move(sg));
    }

    for (const auto& sg : plan.subgraphs)
        plan.order.insert(plan.order.end(), sg.groupOrder.begin(),
                          sg.groupOrder.end());
    SOD2_CHECK_EQ(plan.order.size(), static_cast<size_t>(num_groups));
    return plan;
}

}  // namespace sod2
