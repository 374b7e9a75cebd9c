#include "core/sod2_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "memory/branch_colors.h"
#include "memory/lifetime.h"
#include "memory/planners.h"
#include "ops/op_registry.h"
#include "runtime/interpreter.h"
#include "support/env.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/string_util.h"
#include "support/trace.h"
#include "tensor/dtype.h"

namespace sod2 {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void
Sod2Engine::initCommon()
{
    SOD2_CHECK(graph_ != nullptr);
    graph_->validate();
    validateOps(*graph_);
    // Compiling an engine means run threads may start executing at any
    // point from here on; seal the registry so a late registration can
    // never race their lock-free lookups.
    OpRegistry::instance().freeze();
    // Observability: honor SOD2_TRACE / SOD2_TRACE_FILE once per
    // process.
    Trace::initFromEnv();
    fault::initFromEnv();
}

Sod2Engine::Sod2Engine(const Graph* graph, Sod2Options options)
    : graph_(graph), options_(std::move(options))
{
    initCommon();

    // (1) RDP analysis.
    rdp_ = std::make_unique<RdpResult>(runRdp(*graph_, options_.rdp));

    // (1b) Constant folding: execute nodes whose inputs are all
    // constants once, at compile time (folded results cap at 1 MiB to
    // avoid trading weights for bloat). Control flow never folds.
    if (options_.enableConstantFolding) {
        const Graph& g = *graph_;
        std::map<ValueId, Tensor> known;
        for (ValueId v = 0; v < g.numValues(); ++v)
            if (g.value(v).isConstant())
                known.emplace(v, g.value(v).constant);
        KernelConfig fold_config;
        for (NodeId n : g.topoOrder()) {
            const Node& node = g.node(n);
            if (node.op == kSwitchOp || node.op == kCombineOp ||
                node.op == "If" || node.op == "Loop")
                continue;
            bool ready = true;
            std::vector<Tensor> ins;
            for (ValueId in : node.inputs) {
                auto it = known.find(in);
                if (it == known.end()) {
                    ready = false;
                    break;
                }
                ins.push_back(it->second);
            }
            if (!ready)
                continue;
            auto outs = executeNode(g, node, ins, heapAllocator(),
                                    fold_config);
            bool keep = true;
            for (const Tensor& t : outs)
                if (t.byteSize() > (1u << 20))
                    keep = false;
            if (!keep)
                continue;
            for (size_t i = 0; i < outs.size(); ++i) {
                known.emplace(node.outputs[i], outs[i]);
                folded_.emplace(node.outputs[i], outs[i]);
            }
        }
    }

    // (2) Operator fusion under the configured proof strength.
    switch (options_.fusion) {
      case FusionMode::kNone:
        fusion_ = buildNoFusionPlan(*graph_);
        break;
      case FusionMode::kStatic:
        fusion_ = buildStaticFusionPlan(*graph_, *rdp_);
        break;
      case FusionMode::kRdp:
        fusion_ = buildRdpFusionPlan(*graph_, *rdp_);
        break;
    }

    // (3) Static execution planning.
    SepOptions sep = options_.sep;
    sep.enable = options_.enableSep;
    plan_ = buildExecutionPlan(*graph_, *rdp_, fusion_, sep);

    versions_ = !options_.enableMvc ? TunedVersions::singleVersion()
                : options_.tuneKernels
                    ? tuneAllVersions(TunerOptions{})
                    : TunedVersions::defaults();

    finishCompile();
}

Sod2Engine::Sod2Engine(const Graph* graph, Sod2Options options,
                       CompiledArtifact artifact)
    : graph_(graph), options_(std::move(options))
{
    initCommon();

    // Adoption: the artifact stands in for phases (1)-(3) and the
    // tuned-version table. Validation (graph hash, registry hash,
    // options fingerprint) happened at parse time — see
    // core/snapshot.cpp loadSnapshot.
    SOD2_CHECK(artifact.rdp != nullptr)
        << "artifact is missing its RDP result";
    rdp_ = std::move(artifact.rdp);
    folded_ = std::move(artifact.folded);
    fusion_ = std::move(artifact.fusion);
    plan_ = std::move(artifact.plan);
    versions_ = artifact.versions;
    loaded_from_snapshot_ = true;

    finishCompile();

    // Re-warm the plan cache: instantiate each persisted hot signature
    // so the first request of a known shape is already a cache hit,
    // exactly as warmup() would have left it. Warm entries are hints,
    // not contract — one that no longer instantiates (e.g. a file
    // edited after the validated header) is skipped with a warning,
    // never fails construction.
    if (plan_cache_) {
        const size_t arity = binder_->symbolNames().size();
        for (auto it = artifact.warm.rbegin();  // oldest first, so the
             it != artifact.warm.rend(); ++it)  // MRU order is restored
            try {
                if (it->second.size() != arity)
                    SOD2_THROW_CODE(ErrorCode::kInvalidInput)
                        << "warm signature has " << it->second.size()
                        << " values, engine binds " << arity;
                plan_cache_->findOrInstantiate(
                    it->first, it->second, [&] {
                        return instantiatePlan(
                            binder_->toBindingMap(it->second));
                    });
            } catch (const Error& e) {
                SOD2_LOG(kWarn)
                    << "skipping unusable warm plan signature "
                    << it->first << ": " << e.what();
            }
    }
}

void
Sod2Engine::finishCompile()
{
    // (4) Fused-group compilation + kernel version table.
    compiled_ = compilePlan(*graph_, fusion_);

    // Symbolic per-group version selectors: shape-class selection moves
    // from the execution loop to plan instantiation, where it can be
    // cached per shape signature.
    {
        std::vector<NodeId> heads(fusion_.numGroups(), kNoNode);
        for (int gi = 0; gi < fusion_.numGroups(); ++gi)
            heads[gi] = fusion_.groups[gi].nodes[0];
        selectors_ = buildVersionSelectors(*graph_, heads, *rdp_);
    }

    binder_ = std::make_unique<SymbolBinder>(*graph_, options_.rdp);
    // Cached once per process (support/env), so every engine in one
    // process honors the same SOD2_VALIDATE_PLANS value.
    if (env::validatePlans())
        options_.validateEveryPlan = true;
    if (options_.planCacheCapacity > 0)
        plan_cache_ = std::make_unique<PlanCache>(
            static_cast<size_t>(options_.planCacheCapacity));
    unplanned_offsets_ = std::make_shared<std::vector<size_t>>(
        graph_->numValues(), kUnplannedOffset);

    step_of_group_.assign(fusion_.numGroups(), 0);
    for (size_t i = 0; i < plan_.order.size(); ++i)
        step_of_group_[plan_.order[i]] = static_cast<int>(i);
    subgraph_of_group_.assign(fusion_.numGroups(), 0);
    for (size_t si = 0; si < plan_.subgraphs.size(); ++si)
        for (int gi : plan_.subgraphs[si].groupOrder)
            subgraph_of_group_[gi] = static_cast<int>(si);

    // A group is skippable when every output of every node is folded.
    group_folded_.assign(fusion_.numGroups(), false);
    for (int gi = 0; gi < fusion_.numGroups(); ++gi) {
        bool all = true;
        for (NodeId n : fusion_.groups[gi].nodes)
            for (ValueId v : graph_->node(n).outputs)
                if (!folded_.count(v))
                    all = false;
        group_folded_[gi] = all;
    }

    base_remaining_uses_.assign(graph_->numValues(), 0);
    for (ValueId v = 0; v < graph_->numValues(); ++v)
        base_remaining_uses_[v] =
            static_cast<int>(graph_->value(v).consumers.size());

    // (5) DMP skeleton: intervals with symbolic sizes, computed once.
    // Each run only evaluates the size expressions under the input's
    // symbol bindings and replays the placement — the "lightweight"
    // property §4.4.1 claims for the runtime plan instantiation.
    if (options_.enableDmp) {
        const Graph& g = *graph_;
        std::vector<int> step_of_node(g.numNodes(), 0);
        for (size_t step = 0; step < plan_.order.size(); ++step)
            for (NodeId n : fusion_.groups[plan_.order[step]].nodes)
                step_of_node[n] = static_cast<int>(step);

        std::vector<std::shared_ptr<const BranchColors>> color_of;
        if (!options_.executeAllBranches) {
            auto colors = computeBranchColors(g);
            color_of.resize(colors.size());
            for (size_t v = 0; v < colors.size(); ++v)
                if (!colors[v].empty())
                    color_of[v] = std::make_shared<const BranchColors>(
                        std::move(colors[v]));
        }

        for (int gi : plan_.order) {
            for (NodeId n : fusion_.groups[gi].nodes) {
                for (ValueId v : g.node(n).outputs) {
                    if (!fusion_.materialized[v] || folded_.count(v))
                        continue;
                    const ShapeInfo& shape = rdp_->shapeOf(v);
                    SymExprPtr elems = shape.numElementsExpr();
                    if (!elems)
                        continue;  // execution-determined: heap fallback
                    IntervalTemplate t;
                    t.value = v;
                    t.defStep = step_of_group_[gi];
                    t.lastUse = t.defStep;
                    for (NodeId c : g.value(v).consumers)
                        t.lastUse =
                            std::max(t.lastUse, step_of_node[c]);
                    if (g.value(v).isGraphOutput)
                        t.lastUse =
                            static_cast<int>(plan_.order.size()) - 1;
                    t.bytesExpr =
                        elems * SymExpr::constant(static_cast<int64_t>(
                                    dtypeSize(g.value(v).dtype)));
                    if (v < static_cast<ValueId>(color_of.size()))
                        t.colors = color_of[v];
                    interval_templates_.push_back(std::move(t));
                }
            }
        }
    }
}

CompiledArtifact
Sod2Engine::exportArtifact(size_t maxWarmEntries) const
{
    CompiledArtifact a;
    a.rdp = std::make_unique<RdpResult>(*rdp_);
    a.fusion = fusion_;
    a.plan = plan_;
    a.versions = versions_;
    a.folded = folded_;
    if (plan_cache_ && maxWarmEntries > 0)
        a.warm = plan_cache_->residentSignatures(maxWarmEntries);
    return a;
}

int
Sod2Engine::materializedValueCount() const
{
    int count = 0;
    for (ValueId v = 0; v < graph_->numValues(); ++v) {
        const Value& val = graph_->value(v);
        if (!val.isConstant() && !val.isGraphInput &&
            fusion_.materialized[v])
            ++count;
    }
    return count;
}

std::shared_ptr<const PlanInstance>
Sod2Engine::instantiatePlan(
    const std::map<std::string, int64_t>& bindings) const
{
    // Fault site, before any work: a failed instantiation must leave
    // nothing behind (the plan cache already guarantees a failed
    // leader never publishes and waiters recover on their own).
    if (fault::shouldFail(fault::kPlanInstantiate))
        SOD2_THROW_CODE(ErrorCode::kInternal)
            << "injected fault at " << fault::kPlanInstantiate
            << ": plan instantiation failed";
    auto inst = std::make_shared<PlanInstance>();
    inst->versions = resolveVersions(selectors_, versions_, bindings);
    if (options_.enableDmp && !interval_templates_.empty()) {
        inst->intervals.reserve(interval_templates_.size());
        for (const IntervalTemplate& t : interval_templates_) {
            auto bytes = t.bytesExpr->evaluate(bindings);
            SOD2_CHECK(bytes.has_value())
                << "unbound symbol in size of value "
                << graph_->value(t.value).name;
            Interval iv;
            iv.value = t.value;
            iv.defStep = t.defStep;
            iv.lastUse = t.lastUse;
            iv.bytes = static_cast<size_t>(*bytes);
            iv.colors = t.colors;
            inst->intervals.push_back(std::move(iv));
        }
        inst->plan = planPeakOutward(inst->intervals);
        inst->arenaBytes = inst->plan.arenaBytes;
        inst->offsetOfValue = std::make_shared<std::vector<size_t>>(
            offsetsByValue(inst->intervals, inst->plan,
                           graph_->numValues()));
    } else {
        inst->offsetOfValue = unplanned_offsets_;
    }
    return inst;
}

void
Sod2Engine::bindContext(RunContext& ctx) const
{
    ctx.engine_ = this;
    ctx.binding_values_.clear();
    ctx.fallback_pool_ =
        options_.enableDmp ? nullptr : PoolAllocator::create();
    ctx.folded_env_.assign(graph_->numValues(), Tensor());
    for (const auto& [v, t] : folded_)
        ctx.folded_env_[v] = t;
    // Another engine's plan must never survive a rebind: signatures
    // only key plans within one compiled engine.
    ctx.last_plan_.reset();
    ctx.last_plan_hash_ = 0;
    ctx.last_plan_values_.clear();
}

uint64_t
Sod2Engine::bindSignature(const std::vector<Tensor>& inputs,
                          std::vector<int64_t>* values) const
{
    std::vector<Shape> in_shapes;
    in_shapes.reserve(inputs.size());
    for (const Tensor& t : inputs)
        in_shapes.push_back(t.shape());
    binder_->bind(in_shapes, values);
    return binder_->signatureHash(*values);
}

uint64_t
Sod2Engine::signatureFor(const std::vector<Tensor>& inputs,
                         std::vector<int64_t>* values) const
{
    validateInputs(inputs);
    std::vector<int64_t> local;
    return bindSignature(inputs, values ? values : &local);
}

bool
Sod2Engine::warmup(const std::vector<Tensor>& inputs) const
{
    std::vector<int64_t> values;
    uint64_t hash = signatureFor(inputs, &values);
    if (!plan_cache_)
        return false;
    plan_cache_->findOrInstantiate(hash, values, [&] {
        return instantiatePlan(binder_->toBindingMap(values));
    });
    return true;
}

void
Sod2Engine::validateInputs(const std::vector<Tensor>& inputs) const
{
    const Graph& g = *graph_;
    SOD2_CHECK_CODE(inputs.size() == g.inputIds().size(),
                    ErrorCode::kInvalidInput)
        << "wrong number of graph inputs: expected "
        << g.inputIds().size() << ", got " << inputs.size();
    const std::vector<int>& ranks = binder_->declaredRanks();
    for (size_t i = 0; i < inputs.size(); ++i) {
        const Value& v = g.value(g.inputIds()[i]);
        SOD2_CHECK_CODE(inputs[i].isValid(), ErrorCode::kInvalidInput)
            << "input " << i << " ('" << v.name << "') is empty";
        SOD2_CHECK_CODE(inputs[i].dtype() == v.dtype,
                        ErrorCode::kInvalidInput)
            << "input " << i << " ('" << v.name << "') has dtype "
            << dtypeName(inputs[i].dtype()) << ", expected "
            << dtypeName(v.dtype);
        if (i < ranks.size() && ranks[i] >= 0) {
            SOD2_CHECK_CODE(
                static_cast<int>(inputs[i].shape().rank()) == ranks[i],
                ErrorCode::kInvalidInput)
                << "input " << i << " ('" << v.name << "') has rank "
                << inputs[i].shape().rank() << ", expected " << ranks[i];
        }
    }
}

std::vector<Tensor>
Sod2Engine::run(const std::vector<Tensor>& inputs, RunStats* stats)
{
    return run(default_context_, inputs, stats);
}

std::vector<Tensor>
Sod2Engine::run(RunContext& ctx, const std::vector<Tensor>& inputs,
                RunStats* stats, const RunOptions& opts) const
{
    // Guardrail 1: reject malformed requests before touching any
    // context state — count, dtype, and rank against the compiled
    // signature, each naming the offending input index.
    validateInputs(inputs);

    if (ctx.engine_ != this)
        bindContext(ctx);

    const Graph& g = *graph_;
    auto t_start = Clock::now();

    // Guardrail 2: cooperative deadline, checked at every group
    // boundary below (a single long kernel is never interrupted).
    const bool has_deadline = opts.deadlineSeconds > 0.0;
    const Clock::time_point deadline =
        has_deadline ? t_start +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   opts.deadlineSeconds))
                     : Clock::time_point();

    // Guardrail 3: per-run arena budget. Per-run option wins; 0 defers
    // to the process-wide SOD2_ARENA_BUDGET cap (0 = unlimited). The
    // arena checks the budget against the *requested* requirement
    // before growing, so an over-budget plan fails with a typed
    // ArenaExhausted error and the context stays reusable.
    ctx.arena_.setBudget(opts.arenaBudgetBytes != 0
                             ? opts.arenaBudgetBytes
                             : env::arenaBudgetBytes());

    // Observability gate: one relaxed atomic load. When tracing is off
    // tb is null and every span below is inert (no clocks, no locks).
    TraceBuffer* tb = Trace::enabled() ? &ctx.trace_ : nullptr;
    TraceSpan run_span(tb, "run", "engine");

    CostMeter meter(options_.device);
    bool simulated = options_.device.simulated;

    // --- Bind symbols & instantiate the memory plan ---------------------
    TraceSpan bind_span(tb, "bind", "engine");
    uint64_t hash = bindSignature(inputs, &ctx.binding_values_);
    bind_span.end();

    // DMP/MVC instantiation, three tiers. (1) Context memo: when this
    // context's previous run had the same signature — the steady state
    // under shape-affinity dispatch — reuse its plan with zero shared
    // state touched. (2) Shared cache: a repeated signature reuses the
    // cached plan instance outright. (3) Miss: evaluate the interval
    // skeletons' symbolic sizes under this input's bindings, replay the
    // peak-outward placement, resolve kernel versions, and memoize the
    // result (single-flighted: concurrent misses on one signature
    // instantiate once). This is the only per-run planning work.
    TraceSpan plan_span(tb, "plan", "engine");
    std::shared_ptr<const PlanInstance> inst;
    bool cache_hit = false;
    bool context_hit = false;
    if (plan_cache_) {
        // A plan is a pure function of the engine and the binding, so
        // an equal signature may reuse the memo even after the shared
        // cache evicted that plan.
        if (ctx.last_plan_ && ctx.last_plan_hash_ == hash &&
            ctx.last_plan_values_ == ctx.binding_values_) {
            inst = ctx.last_plan_;
            cache_hit = true;
            context_hit = true;
            plan_cache_->noteContextHit();
        } else {
            bool instantiated = false;
            inst = plan_cache_->findOrInstantiate(
                hash, ctx.binding_values_,
                [&] {
                    return instantiatePlan(
                        binder_->toBindingMap(ctx.binding_values_));
                },
                &instantiated);
            cache_hit = !instantiated;
            ctx.last_plan_ = inst;
            ctx.last_plan_hash_ = hash;
            ctx.last_plan_values_ = ctx.binding_values_;
        }
    } else {
        inst = instantiatePlan(binder_->toBindingMap(ctx.binding_values_));
    }
    if (tb)
        plan_span.setArgs(strFormat(
            "\"cache_hit\":%s,\"context_hit\":%s",
            cache_hit ? "true" : "false",
            context_hit ? "true" : "false"));
    plan_span.end();

    const std::vector<size_t>& offset_of = *inst->offsetOfValue;
    size_t arena_bytes = inst->arenaBytes;
    size_t arena_grown = 0;
    {
        TraceSpan arena_span(tb, "arena", "engine");
        if (options_.enableDmp && !inst->intervals.empty()) {
            arena_grown = ctx.arena_.reserve(arena_bytes);
            // Validate when the plan changed scale (the planner itself
            // is property-tested for overlap freedom) or when the debug
            // switch demands it on every run, cached or not.
            if (arena_grown > 0 || options_.validateEveryPlan) {
                SOD2_CHECK(validatePlan(inst->intervals, inst->plan))
                    << "DMP produced an overlapping plan";
            }
            if (arena_grown > 0 && simulated)
                meter.chargeAllocTouch(static_cast<double>(arena_grown));
        }
        if (tb)
            arena_span.setArgs(strFormat(
                "\"required_bytes\":%zu,\"grown_bytes\":%zu",
                arena_bytes, arena_grown));
    }

    double plan_seconds = secondsSince(t_start);
    const std::shared_ptr<PoolAllocator>& fallback_pool =
        ctx.fallback_pool_;
    size_t pool_before = fallback_pool ? fallback_pool->poolBytes() : 0;

    // --- Execute ---------------------------------------------------------
    // Per-thread window: exact per-run heap accounting even with N
    // concurrent runs (the process-wide counters stay untouched).
    TensorAllocStats::ThreadScope& heap_scope =
        TensorAllocStats::threadScope();
    heap_scope.reset();

    std::vector<Tensor> env = ctx.folded_env_;
    for (size_t i = 0; i < inputs.size(); ++i)
        env[g.inputIds()[i]] = inputs[i];

    std::vector<int> remaining_uses = base_remaining_uses_;

    int executed = 0;
    std::vector<double> sg_seconds(plan_.subgraphs.size(), 0.0);
    std::vector<double> group_seconds;
    if (stats)
        group_seconds.assign(fusion_.numGroups(), 0.0);

    KernelConfig base_config;
    base_config.meter = simulated ? &meter : nullptr;

    for (int gi : plan_.order) {
        if (group_folded_[gi])
            continue;  // pre-computed at compile time
        // Group boundaries are the cooperative cancellation points of
        // the planned executor (the interpreter's analog is node
        // boundaries). Expiry leaves the context reusable: env and
        // remaining_uses are run-local, and the arena needs no unwind.
        if (has_deadline && Clock::now() >= deadline)
            SOD2_THROW_CODE(ErrorCode::kDeadlineExceeded)
                << "run exceeded its deadline of "
                << opts.deadlineSeconds << " s before group " << gi
                << " (step " << step_of_group_[gi] << ")";
        const CompiledGroup& cg = compiled_[gi];
        const FusionGroup& grp = fusion_.groups[gi];
        auto t_g = Clock::now();
        double sim_g = meter.seconds();
        double trace_ts = tb ? Trace::nowUs() : 0.0;
        int executed_before = executed;

        // Gather external inputs; detect dead paths.
        std::vector<Tensor> ext;
        ext.reserve(cg.externalInputs().size());
        bool any_dead = false;
        for (ValueId in : cg.externalInputs()) {
            const Value& v = g.value(in);
            if (v.isConstant()) {
                ext.push_back(v.constant);
            } else {
                ext.push_back(env[in]);
                if (!env[in].isValid())
                    any_dead = true;
            }
        }

        const Node& head = g.node(grp.nodes[0]);
        bool is_switch = head.op == kSwitchOp;
        bool is_combine = head.op == kCombineOp;

        // Copies @p src into @p v's planned arena slot (or the heap when
        // the slot is unplanned). Routing ops must *materialize* their
        // result: an alias would outlive the source's planned lifetime.
        auto materializeInto = [&](ValueId v, const Tensor& src) {
            Tensor dst;
            if (offset_of[v] != kUnplannedOffset)
                dst = ctx.arena_.viewAt(offset_of[v], src.dtype(),
                                        src.shape());
            else if (fallback_pool)
                dst = fallback_pool->allocate(src.dtype(), src.shape());
            else
                dst = Tensor(src.dtype(), src.shape());
            std::memcpy(dst.raw(), src.raw(), src.byteSize());
            return dst;
        };

        std::vector<Tensor> outs;
        if (is_switch) {
            SOD2_CHECK(ext[1].isValid());
            int64_t branches = head.attrs.getInt("num_branches");
            int64_t pred = ext[1].toInt64Vector().at(0);
            SOD2_CHECK_CODE(pred >= 0 && pred < branches,
                            ErrorCode::kInvalidInput)
                << "Switch predicate " << pred << " out of range "
                << branches << " at " << head.name;
            outs.assign(branches, Tensor());
            if (ext[0].isValid()) {
                for (int64_t i = 0; i < branches; ++i)
                    if (i == pred || options_.executeAllBranches)
                        outs[i] =
                            materializeInto(head.outputs[i], ext[0]);
            }
            ++executed;
        } else if (is_combine) {
            SOD2_CHECK(ext[0].isValid());
            int64_t pred = ext[0].toInt64Vector().at(0);
            SOD2_CHECK_CODE(pred >= 0 &&
                                pred + 1 <
                                    static_cast<int64_t>(ext.size()),
                            ErrorCode::kInvalidInput)
                << "Combine predicate " << pred << " out of range at "
                << head.name;
            SOD2_CHECK_CODE(ext[pred + 1].isValid(),
                            ErrorCode::kInvalidInput)
                << "Combine selected dead branch " << pred << " at "
                << head.name;
            outs = {materializeInto(head.outputs[0], ext[pred + 1])};
            ++executed;
        } else if (any_dead) {
            outs.assign(g.node(grp.tail()).outputs.size(), Tensor());
            if (grp.kind == GroupKind::kSingle)
                outs.assign(head.outputs.size(), Tensor());
        } else {
            // Multi-version kernel selection: resolved at plan time
            // (and cached per shape signature) when RDP proved the
            // operand dims; concrete-shape fallback for EDO operands.
            KernelConfig config = base_config;
            const GroupKernelChoice& choice = inst->versions[gi];
            if (choice.kind == GroupKernelChoice::Kind::kGemm) {
                config.gemm = choice.gemm;
            } else if (choice.kind == GroupKernelChoice::Kind::kConv) {
                config.conv = choice.conv;
            } else if (head.op == "MatMul") {
                const Shape& sa = ext[0].shape();
                const Shape& sb = ext[1].shape();
                config.gemm = versions_.gemmFor(
                    sa.dimAt(-2), sb.dimAt(-1), sa.dimAt(-1));
            } else if (head.op == "Conv") {
                config.conv = versions_.convFor(
                    ext[0].shape().dim(0) * ext[1].shape().dim(0));
            }

            // Arena-aware allocator: planned values take their slot,
            // everything else (EDO results) falls back to the heap.
            std::vector<ValueId> pending;
            if (grp.kind == GroupKind::kSingle) {
                pending.assign(head.outputs.begin(), head.outputs.end());
            } else {
                pending = {cg.outputValue()};
            }
            size_t next = 0;
            TensorAllocator alloc = [&](DType dtype, const Shape& shape) {
                ValueId v = next < pending.size()
                                ? pending[next++]
                                : kNoNode;
                if (v >= 0 && offset_of[v] != kUnplannedOffset)
                    return ctx.arena_.viewAt(offset_of[v], dtype, shape);
                if (fallback_pool)
                    return fallback_pool->allocate(dtype, shape);
                return Tensor(dtype, shape);
            };
            try {
                outs = cg.run(g, ext, alloc, config);
            } catch (const Error& e) {
                // Attach execution context to kernel-layer failures.
                // Untyped (Internal) check failures from kernel code
                // are retagged KernelFailure; ArenaExhausted keeps its
                // code but gains the owning group/step. Input-shaped
                // codes pass through unchanged.
                ErrorCode code = e.code();
                if (code == ErrorCode::kInvalidInput ||
                    code == ErrorCode::kBindFailure ||
                    code == ErrorCode::kDeadlineExceeded)
                    throw;
                if (code == ErrorCode::kInternal)
                    code = ErrorCode::kKernelFailure;
                SOD2_THROW_CODE(code)
                    << e.what() << " [while executing group " << gi
                    << " (op " << head.op << ", step "
                    << step_of_group_[gi] << ")]";
            }
            ++executed;
        }

        if (grp.kind == GroupKind::kSingle) {
            SOD2_CHECK_EQ(outs.size(), head.outputs.size());
            for (size_t i = 0; i < outs.size(); ++i)
                env[head.outputs[i]] = std::move(outs[i]);
        } else {
            SOD2_CHECK_EQ(outs.size(), 1u);
            env[cg.outputValue()] = std::move(outs[0]);
        }

        // Release dead heap tensors (arena views are free anyway).
        for (NodeId n : grp.nodes) {
            for (ValueId in : g.node(n).inputs) {
                if (g.value(in).isConstant())
                    continue;
                if (--remaining_uses[in] == 0 &&
                    !g.value(in).isGraphOutput)
                    env[in] = Tensor();
            }
        }

        int si = subgraph_of_group_[gi];
        double attributed = simulated ? (meter.seconds() - sim_g)
                                      : secondsSince(t_g);
        sg_seconds[si] += attributed;
        if (stats)
            group_seconds[gi] += attributed;
        // One span per *executed* operator group (dead-path groups
        // produce no span, keeping span count == executedGroups).
        if (tb && executed > executed_before) {
            const GroupKernelChoice& gc = inst->versions[gi];
            const char* version =
                gc.kind == GroupKernelChoice::Kind::kGemm   ? "gemm"
                : gc.kind == GroupKernelChoice::Kind::kConv ? "conv"
                                                            : "default";
            tb->addComplete(
                head.op, "group", trace_ts, Trace::nowUs() - trace_ts,
                strFormat("\"group\":%d,\"step\":%d,\"subgraph\":%d,"
                          "\"nodes\":%zu,\"version\":\"%s\"",
                          gi, step_of_group_[gi], si, grp.nodes.size(),
                          version));
        }
    }

    std::vector<Tensor> results;
    for (ValueId out : g.outputIds()) {
        SOD2_CHECK(env[out].isValid() || g.value(out).isConstant())
            << "output '" << g.value(out).name << "' not produced";
        results.push_back(env[out].isValid() ? env[out]
                                             : g.value(out).constant);
    }

    // Fresh pool blocks pay the buffer-mapping cost on simulated GPUs,
    // mirroring the arena's first-touch charge.
    if (fallback_pool && simulated)
        meter.chargeAllocTouch(static_cast<double>(
            fallback_pool->poolBytes() - pool_before));

    if (stats) {
        stats->seconds = simulated ? meter.seconds() + plan_seconds
                                   : secondsSince(t_start);
        stats->arenaBytes = arena_bytes;
        stats->dynamicBytes = heap_scope.peak;
        stats->peakMemoryBytes = arena_bytes + heap_scope.peak +
                                 (fallback_pool
                                      ? fallback_pool->poolBytes()
                                      : 0);
        stats->planSeconds = plan_seconds;
        stats->planCacheHit = cache_hit;
        stats->executedGroups = executed;
        stats->subgraphSeconds = std::move(sg_seconds);
        stats->groupSeconds = std::move(group_seconds);
    }

    if (tb) {
        run_span.setArgs(strFormat(
            "\"executed_groups\":%d,\"cache_hit\":%s,"
            "\"arena_bytes\":%zu,\"plan_us\":%.3f",
            executed, cache_hit ? "true" : "false", arena_bytes,
            plan_seconds * 1e6));
    }
    return results;
}

RunResult
Sod2Engine::tryRun(RunContext& ctx, const std::vector<Tensor>& inputs,
                   RunStats* stats, const RunOptions& opts) const
{
    auto t_start = Clock::now();
    RunResult result;
    // serviceSeconds wants the run's own latency even when the caller
    // passed no stats — route through a local RunStats then. run()
    // fills stats only on success, so the on-failure "stats untouched"
    // contract holds either way.
    RunStats local_stats;
    RunStats* s = stats ? stats : &local_stats;
    try {
        result.outputs = run(ctx, inputs, s, opts);
        result.serviceSeconds = s->seconds;
        return result;
    } catch (const Error& e) {
        result.code = e.code();
        result.message = e.what();
    } catch (const std::exception& e) {
        result.code = ErrorCode::kInternal;
        result.message = e.what();
    }
    if (Trace::enabled())
        ctx.trace_.addInstant(
            "run.failed", "engine",
            strFormat("\"code\":\"%s\"", errorCodeName(result.code)));

    // Graceful degradation: recoverable codes may be served by the
    // unfused reference interpreter — plan-free and heap-allocated, so
    // it sidesteps arena budgets, binding, and fused-kernel state.
    // InvalidInput would fail identically there; DeadlineExceeded
    // means the request's budget is already spent.
    const bool recoverable = result.code == ErrorCode::kArenaExhausted ||
                             result.code == ErrorCode::kKernelFailure ||
                             result.code == ErrorCode::kBindFailure ||
                             result.code == ErrorCode::kInternal;
    if (!opts.fallbackOnError || !recoverable)
        return result;

    try {
        InterpreterOptions iopts;
        iopts.executeAllBranches = options_.executeAllBranches;
        if (opts.deadlineSeconds > 0.0) {
            double remaining =
                opts.deadlineSeconds - secondsSince(t_start);
            if (remaining <= 0.0) {
                result.code = ErrorCode::kDeadlineExceeded;
                result.message =
                    "deadline expired before the fallback could start "
                    "(original failure: " + result.message + ")";
                return result;
            }
            iopts.deadlineSeconds = remaining;
        }
        Interpreter fallback(graph_, iopts);
        result.outputs = fallback.run(inputs);
        result.code = ErrorCode::kOk;
        result.message.clear();
        result.fellBack = true;
        // Fallback latency is wall time from tryRun entry: the failed
        // optimized attempt is part of what serving this request cost.
        result.serviceSeconds = secondsSince(t_start);
        if (Trace::enabled())
            ctx.trace_.addInstant("run.fallback", "engine", "");
    } catch (const Error& e) {
        result.code = e.code();
        result.message = e.what();
    } catch (const std::exception& e) {
        result.code = ErrorCode::kInternal;
        result.message = e.what();
    }
    return result;
}

}  // namespace sod2
