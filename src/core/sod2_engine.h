#ifndef SOD2_CORE_SOD2_ENGINE_H_
#define SOD2_CORE_SOD2_ENGINE_H_

/**
 * @file
 * Sod2Engine — the end-to-end SoD2 pipeline (paper §4).
 *
 * compile time (constructor):  RDP analysis -> operator fusion (RDP or
 * static) -> static execution planning -> fused-group compilation ->
 * multi-version kernel table.
 *
 * run time (run()): bind symbolic constants against the concrete input
 * shapes -> instantiate the memory-allocation plan (DMP: peak-outward
 * placement over the now-known sizes) -> execute groups in the planned
 * order through one arena, taking only live control-flow branches,
 * selecting kernel versions per shape class.
 *
 * Concurrency model: after the constructor returns, the engine itself
 * is immutable — run() is const and touches only compiled state, the
 * internally synchronized plan cache, and the RunContext it is given.
 * One compiled engine serves N request threads, each with its own
 * RunContext. The context-less run() overload uses an engine-owned
 * default context and therefore keeps the historical single-threaded
 * contract.
 *
 * Every optimization can be toggled independently for the Figure 5/6
 * ablation breakdowns.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/kernel_tuner.h"
#include "core/batchability.h"
#include "core/plan_cache.h"
#include "core/run_context.h"
#include "fusion/fused_executor.h"
#include "fusion/fusion_plan.h"
#include "kernels/device_profile.h"
#include "memory/branch_colors.h"
#include "memory/pool_allocator.h"
#include "planning/execution_plan.h"
#include "rdp/rdp_analysis.h"
#include "runtime/arena.h"
#include "support/metrics.h"
#include "support/status.h"

namespace sod2 {

/** Which fusion proof strength the engine compiles with. */
enum class FusionMode { kNone, kStatic, kRdp };

/** Compile-time configuration (the ablation switchboard). */
struct Sod2Options
{
    RdpOptions rdp;
    FusionMode fusion = FusionMode::kRdp;
    /** Pre-compute nodes whose inputs are all constants (part of the
     *  paper's baseline "general static optimizations"). */
    bool enableConstantFolding = true;
    bool enableSep = true;   ///< static execution planning (§4.3)
    bool enableDmp = true;   ///< RDP-guided memory plan (§4.4.1)
    bool enableMvc = true;   ///< multi-version kernels (§4.4.2)
    /**
     * Run the GA auto-tuner at compile to fill the multi-version
     * kernel table (the paper's "ST" re-initialization cost, Table 1)
     * instead of shipping the hand-tuned defaults. Deliberately
     * expensive — and exactly what an engine snapshot amortizes: the
     * tuned table is part of the persisted artifact, so a snapshot
     * boot skips the whole tuning run (bench/table1, Table 1c).
     */
    bool tuneKernels = false;
    /** Execute all Switch branches and strip (baseline parity mode). */
    bool executeAllBranches = false;
    /**
     * Plan-instantiation cache capacity in distinct input-shape
     * signatures (LRU). Repeated signatures skip all per-run DMP/MVC
     * work; 0 disables caching (every run re-instantiates).
     */
    int planCacheCapacity = 16;
    /**
     * Re-validate the memory plan on *every* run, including cache hits
     * and runs where the arena did not grow (normally validation is
     * skipped then). Env SOD2_VALIDATE_PLANS=1 forces this on — the CI
     * knob for checking cached-plan reuse.
     */
    bool validateEveryPlan = false;
    DeviceProfile device = DeviceProfile::mobileCpu();
    SepOptions sep;
};

/**
 * Cross-engine arena arbitration (DESIGN.md §16). A RunOptions can
 * carry one of these; the engine then consults it before letting a
 * run's arena grow past its current capacity, and reports the arena's
 * actual capacity back after every arbitrated run (growth, trim, or
 * budget-rejected grow alike), so the arbiter's per-context ledger
 * tracks reality. The fleet's MemoryGovernor implements this to hold N
 * engines under one global byte budget. Implementations must be
 * thread-safe: one arbiter is shared by every worker of every member.
 * The `slot` key is the RunContext address — stable per worker, opaque
 * to the arbiter.
 */
class ArenaArbiter
{
  public:
    virtual ~ArenaArbiter() = default;

    /** May @p slot's arena grow from @p currentBytes capacity to
     *  @p requiredBytes? Returning false makes the run fail with a
     *  typed ArenaExhausted error before any memory moves (the same
     *  recoverable, fallback-eligible class as the per-run budget).
     *  A `true` return commits the delta in the arbiter's ledger;
     *  noteArenaCapacity reconciles it afterwards. */
    virtual bool admitArenaGrow(const void* slot, size_t currentBytes,
                                size_t requiredBytes) = 0;

    /** Reports @p slot's arena capacity after an arbitrated run (or an
     *  explicit trim): the reconciliation hook that releases budget
     *  when the high-water trim shrank the arena, and charges reality
     *  when a grow landed smaller than requested. */
    virtual void noteArenaCapacity(const void* slot,
                                   size_t capacityBytes) = 0;
};

/**
 * Per-run guardrails (the serving-path failure contract; DESIGN.md
 * §10). All default-off: a default-constructed RunOptions reproduces
 * the unguarded behavior except that the process-wide
 * SOD2_ARENA_BUDGET env cap, when set, always applies.
 */
struct RunOptions
{
    /**
     * Cap, in bytes, on the run's planned-arena requirement. A plan
     * needing more fails with a typed ArenaExhausted error *before*
     * the arena grows, leaving the context reusable. 0 defers to
     * SOD2_ARENA_BUDGET (which is unlimited when unset). Governs the
     * DMP arena only; execution-determined (EDO) heap tensors are
     * outside the plan and outside the budget.
     */
    size_t arenaBudgetBytes = 0;
    /**
     * Cooperative deadline in wall seconds, measured from run entry
     * and checked at every group boundary of the planned executor (and
     * node boundary of the fallback interpreter); 0 disables. Expiry
     * throws a typed DeadlineExceeded error. Cooperative means a
     * single long-running kernel is not interrupted mid-flight.
     */
    double deadlineSeconds = 0.0;
    /**
     * tryRun only: when the optimized run fails with a recoverable
     * code (ArenaExhausted, KernelFailure, BindFailure, Internal),
     * re-run the request through the unfused reference interpreter —
     * heap-allocated, plan-free — and serve its result instead.
     * Counted in the "engine.fallback_runs" metric and reported via
     * RunResult::fellBack. InvalidInput and DeadlineExceeded never
     * fall back (the interpreter would fail the same way / the budget
     * is already gone).
     */
    bool fallbackOnError = false;
    /**
     * Global cross-engine arena arbiter (fleet MemoryGovernor), or
     * null. Consulted before this run's arena grows; notified of the
     * arena's capacity after the run. Overlays — does not replace —
     * arenaBudgetBytes: a grow must pass both the per-run budget and
     * the arbiter. Not owned; must outlive every run carrying it.
     */
    ArenaArbiter* arenaArbiter = nullptr;
};

/** Outcome of one tryRun: outputs, or a typed error. */
struct RunResult
{
    /** Valid iff ok(). May alias the context arena, like run(). */
    std::vector<Tensor> outputs;
    ErrorCode code = ErrorCode::kOk;
    /** Human-readable failure detail (empty on success). */
    std::string message;
    /** True when the result was served by the interpreter fallback. */
    bool fellBack = false;
    /**
     * runBatch only: true when this item's failure is a *replicated*
     * stacked-run failure — the whole coalesced batch ran as one
     * engine run and that run failed, so this member's own inputs may
     * be innocent. The serving layer reacts by bisecting: re-running
     * members individually under their own guardrails so only the
     * poison member keeps its error. Always false on success and on
     * per-item (solo) failures.
     */
    bool sharedFate = false;
    /**
     * Engine-side service latency of this result, in seconds: the
     * optimized run's RunStats::seconds (wall time on real devices,
     * cost-model time on simulated profiles), or the fallback
     * interpreter's wall time when fellBack. 0.0 on failure. The fleet
     * router's observed-vs-predicted EWMA feeds on this — queue wait is
     * deliberately excluded so the correction tracks the cost model,
     * not the scheduler.
     */
    double serviceSeconds = 0.0;

    bool ok() const { return code == ErrorCode::kOk; }
};

/** Knobs of one runBatch call (the serving batcher fills these from
 *  its BatchPolicy; DESIGN.md §12). */
struct BatchOptions
{
    /**
     * Pad the stacked batch dimension up to this many rows (zero-filled
     * rows, sliced away before results are returned) so repeated
     * batched traffic hits a few bucket-sized plan signatures instead
     * of one per exact row count. 0 = no padding. Ignored (no padding)
     * when it is smaller than the real stacked row count or when the
     * batch takes the per-item path.
     */
    int64_t padRowsTo = 0;
};

/** What one runBatch call actually did (metrics feed). */
struct BatchRunStats
{
    /** True when the batch ran as one stacked engine run; false when
     *  it fell back to the per-item loop. */
    bool stacked = false;
    /** Requests in the batch (valid or not). */
    int items = 0;
    /** Real data rows stacked (0 on the per-item path). */
    int64_t rows = 0;
    /** Zero rows added to reach BatchOptions::padRowsTo (pad waste). */
    int64_t padRows = 0;
};

/** Per-run measurements. */
struct RunStats
{
    /** End-to-end latency: wall seconds on real devices, cost-model
     *  seconds (plus host planning overhead) on simulated profiles. */
    double seconds = 0.0;
    /** Arena bytes the memory plan *requires* for this input — not the
     *  context arena's capacity, which may be transiently larger after
     *  an outlier shape (until the high-water trim reclaims it). */
    size_t arenaBytes = 0;
    /** Peak heap bytes for execution-determined tensors. */
    size_t dynamicBytes = 0;
    /** Peak total intermediate footprint (arena + dynamic). */
    size_t peakMemoryBytes = 0;
    /** Host-side time spent binding symbols + instantiating (or
     *  looking up) the plan and reserving the arena. On a plan-cache
     *  hit this collapses to bind + one hash lookup — microseconds. */
    double planSeconds = 0.0;
    /** True when this run reused a cached (or in-flight) plan instance
     *  instead of instantiating one itself. */
    bool planCacheHit = false;
    /** Cumulative plan-cache counters (since engine construction).
     *  Taken as one consistent snapshot under the cache lock, so
     *  hits + misses + coalesced equals the lookups completed at
     *  snapshot time even when other threads are mid-run. All four are
     *  0 when the cache is disabled (including on reused RunStats). */
    size_t planCacheHits = 0;
    size_t planCacheMisses = 0;
    size_t planCacheEvictions = 0;
    /** Lookups that joined another thread's in-flight instantiation
     *  (suppressed cache stampedes). */
    size_t planCacheCoalesced = 0;
    int executedGroups = 0;
    /** Wall/simulated seconds attributed to each planned sub-graph. */
    std::vector<double> subgraphSeconds;
    /** Per-group time breakdown, indexed by fusion-group id (0.0 for
     *  folded/dead groups). Same attribution rule as subgraphSeconds:
     *  cost-model seconds on simulated profiles, wall seconds
     *  otherwise. */
    std::vector<double> groupSeconds;
    /** Named phase breakdown (Table 1's SL/ST/Alloc/Infer columns for
     *  engines that re-initialize). */
    std::map<std::string, double> phaseSeconds;
};

/**
 * The persistable compile-time state of one engine: everything the
 * constructor's analysis phases (RDP fixpoint, constant folding,
 * fusion, SEP, kernel tuning) produce, in a form that can be written
 * to disk (core/snapshot.h) and adopted by a later engine without
 * re-running those phases. The cheap derived state (compiled group
 * table, selectors, binder, DMP interval skeletons, step maps) is NOT
 * here — adoption rebuilds it in finishCompile(), which keeps the
 * format small and guarantees the derived state always matches the
 * running binary.
 */
struct CompiledArtifact
{
    std::unique_ptr<RdpResult> rdp;
    FusionPlan fusion;
    ExecutionPlan plan;
    TunedVersions versions;
    /** Compile-time constant-folded values. */
    std::map<ValueId, Tensor> folded;
    /** Hot plan-cache signatures (hash, canonical binding vector),
     *  most-recent first: re-instantiated on adoption so the first
     *  request of a known shape is already a cache hit. */
    std::vector<std::pair<uint64_t, std::vector<int64_t>>> warm;
};

/** Compiled engine for one model graph. */
class Sod2Engine
{
  public:
    /** Compiles @p graph; the graph must outlive the engine. Freezes
     *  the process-wide OpRegistry against late registration. */
    Sod2Engine(const Graph* graph, Sod2Options options);

    /**
     * Adopts @p artifact (a validated snapshot load) instead of running
     * the analysis phases: RDP, fusion, execution order, folded
     * constants, and tuned versions come from the artifact; derived
     * state is rebuilt, and each warm signature is pre-instantiated
     * into the plan cache. The CALLER (core/snapshot.h loadSnapshot)
     * is responsible for having validated the artifact against this
     * graph + registry — adoption itself trusts it.
     */
    Sod2Engine(const Graph* graph, Sod2Options options,
               CompiledArtifact artifact);

    /**
     * Executes one inference through the engine-owned default context.
     * Single-threaded convenience: concurrent callers must use the
     * RunContext overload (this one serializes on shared scratch).
     */
    std::vector<Tensor> run(const std::vector<Tensor>& inputs,
                            RunStats* stats = nullptr);

    /**
     * Executes one inference in @p ctx. Const against all compiled
     * state: safe to call concurrently from N threads as long as each
     * thread brings its own context. @p ctx binds to this engine on
     * first use (and rebinds when previously used with another one).
     * Output tensors may alias @p ctx's arena — they are valid until
     * the context's next run.
     *
     * Failure contract: throws sod2::Error carrying an ErrorCode
     * (support/status.h) — inputs are validated upfront against the
     * compiled signature (InvalidInput), symbol binding is typed
     * (BindFailure), the arena budget and cooperative deadline of
     * @p opts are enforced (ArenaExhausted / DeadlineExceeded), and
     * kernel errors carry group/step context (KernelFailure). A failed
     * run rolls @p ctx back to a reusable state: the very next run of
     * the same context behaves exactly like a run on a fresh context
     * (bit-exact), and no poisoned plan-cache entry is left behind.
     */
    std::vector<Tensor> run(RunContext& ctx,
                            const std::vector<Tensor>& inputs,
                            RunStats* stats = nullptr,
                            const RunOptions& opts = {}) const;

    /**
     * Non-throwing run: same semantics and guardrails as run(), with
     * the typed error returned in RunResult instead of thrown, and
     * optional graceful degradation through the reference interpreter
     * (RunOptions::fallbackOnError). On failure @p stats is left
     * untouched.
     */
    RunResult tryRun(RunContext& ctx, const std::vector<Tensor>& inputs,
                     RunStats* stats = nullptr,
                     const RunOptions& opts = {}) const;

    /** tryRun through the engine-owned default context (single-
     *  threaded convenience, like the context-less run()). */
    RunResult tryRun(const std::vector<Tensor>& inputs,
                     RunStats* stats = nullptr,
                     const RunOptions& opts = {});

    /**
     * Executes @p items (each one request's input vector) as one batch
     * in @p ctx and returns one RunResult per item, index-aligned.
     *
     * When the compiled graph is stackable (batchInfo().stackable) and
     * the items agree on every symbolic extent except the batch dim,
     * the inputs are concatenated along the batch dim — optionally
     * zero-padded up to BatchOptions::padRowsTo — executed as ONE
     * engine run reusing one plan instantiation, and the outputs are
     * sliced back per item. Row independence is proven statically
     * (core/batchability.h), so stacked results are bit-exact against
     * per-item runs; a failure of the stacked run is replicated to
     * every item (the batch sheds together).
     *
     * Otherwise each item runs through tryRun in submission order,
     * still amortizing plan work via the context's last-plan memo, and
     * failures stay per-item. A malformed item (typed InvalidInput /
     * BindFailure) never poisons its batchmates on either path.
     *
     * Unlike run(), every returned output tensor is an owning copy —
     * callers may hold them across later runs of @p ctx.
     */
    std::vector<RunResult>
    runBatch(RunContext& ctx,
             const std::vector<const std::vector<Tensor>*>& items,
             const RunOptions& opts = {}, const BatchOptions& bopts = {},
             BatchRunStats* bstats = nullptr) const;

    /**
     * Canonical shape-signature of @p inputs — the plan-cache key the
     * serving scheduler routes on (shape-affinity dispatch). Validates
     * like run() (typed InvalidInput / BindFailure on a malformed
     * request, making this the server's admission check) and returns
     * the signature hash; when @p values is non-null the canonical
     * binding vector is also written there (reusing its capacity).
     * Thread-safe: touches only compiled state.
     */
    uint64_t signatureFor(const std::vector<Tensor>& inputs,
                          std::vector<int64_t>* values = nullptr) const;

    /**
     * Pre-instantiates (and caches) the plan for @p inputs' shape
     * signature without executing anything — server startup calls this
     * so the first real request of a known signature is already a
     * plan-cache hit. Validates like run(). Returns true when a plan
     * is now resident for the signature, false when the cache is
     * disabled (nothing to warm). Safe to call concurrently.
     */
    bool warmup(const std::vector<Tensor>& inputs) const;

    // --- introspection (used by the breakdown benchmarks) ---------------
    const RdpResult& rdp() const { return *rdp_; }
    const FusionPlan& fusionPlan() const { return fusion_; }
    const ExecutionPlan& executionPlan() const { return plan_; }
    const Sod2Options& options() const { return options_; }
    const Graph* graph() const { return graph_; }

    /** Count of materialized intermediate values (Fig 7 "IR size"
     *  numerator, in tensors; bytes depend on the input). */
    int materializedValueCount() const;

    /** Number of node outputs folded to constants at compile time. */
    int foldedValueCount() const
    {
        return static_cast<int>(folded_.size());
    }

    /** The plan cache, or null when disabled (planCacheCapacity == 0). */
    const PlanCache* planCache() const { return plan_cache_.get(); }

    /** Outcome of the compile-time stackability proof. */
    const BatchInfo& batchInfo() const { return batch_info_; }

    /** True when this engine adopted a CompiledArtifact (snapshot
     *  load) instead of running the analysis phases itself. */
    bool loadedFromSnapshot() const { return loaded_from_snapshot_; }

    /**
     * Copies this engine's persistable compile-time state into a
     * CompiledArtifact (the saveSnapshot input), including up to
     * @p maxWarmEntries resident plan-cache signatures.
     * Thread-safe: reads only compiled state and the internally
     * synchronized cache.
     */
    CompiledArtifact exportArtifact(size_t maxWarmEntries = 16) const;

    /**
     * Batch-compatibility key of a canonical binding vector (from
     * signatureFor): the signature hash with the batch extent masked
     * out. Two requests with equal keys can share one *stacked* run
     * (padding mode); when the graph is not stackable this degenerates
     * to the exact signature hash, so exact-match batching keeps
     * working unchanged.
     */
    uint64_t batchCompatKey(const std::vector<int64_t>& values) const;

    /** Batch rows @p values describes: the bound batch extent for a
     *  stackable graph, else 1 (a non-stackable request is one row of
     *  its own batch). */
    int64_t batchRowsOf(const std::vector<int64_t>& values) const;

    /**
     * Statically estimates one run's latency for the canonical binding
     * vector @p values by charging every node whose input/output shapes
     * the RDP analysis can evaluate under that binding to @p meter
     * (folded groups and control-flow ops are skipped; data-dependent
     * shapes are skipped, making this a lower bound). Returns the
     * meter's accumulated seconds. The shared engine half of
     * CostMeter::predictRunMicros (src/core/cost_predict.cpp);
     * thread-safe — touches only compiled state.
     */
    double estimateRunSeconds(const std::vector<int64_t>& values,
                              CostMeter* meter) const;

  private:
    /** Shared constructor head: graph validation, registry freeze,
     *  trace/fault/metrics initialization. */
    void initCommon();
    /**
     * Shared constructor tail: everything derivable from (graph_,
     * options_, rdp_, fusion_, plan_, versions_, folded_) — group
     * compilation, version selectors, binder, batchability, plan
     * cache, step maps, DMP interval skeletons. Both the
     * analyzing constructor and artifact adoption end here, so derived
     * state never diverges between a compiled and a loaded engine.
     */
    void finishCompile();

    /** Evaluates interval sizes, places the arena plan, and resolves
     *  kernel versions for one symbol binding — the per-signature work
     *  the plan cache memoizes. */
    std::shared_ptr<const PlanInstance>
    instantiatePlan(const std::map<std::string, int64_t>& bindings) const;
    /** Binds @p inputs' shapes into @p values and returns the
     *  signature hash — the shared core of run() and signatureFor()
     *  (no input validation; callers do that first). */
    uint64_t bindSignature(const std::vector<Tensor>& inputs,
                           std::vector<int64_t>* values) const;
    /** (Re)binds @p ctx to this engine: seeds the folded-constant env
     *  template and the fallback pool. */
    void bindContext(RunContext& ctx) const;
    /** Upfront request validation against the compiled graph signature
     *  (arity, dtype, rank); throws typed InvalidInput errors naming
     *  the offending input index. */
    void validateInputs(const std::vector<Tensor>& inputs) const;
    const Graph* graph_;
    Sod2Options options_;
    std::unique_ptr<RdpResult> rdp_;
    FusionPlan fusion_;
    ExecutionPlan plan_;
    std::vector<CompiledGroup> compiled_;
    TunedVersions versions_;
    /** Backs the context-less run() overload (legacy single-threaded
     *  entry point); never touched by the RunContext overload. */
    RunContext default_context_;
    /** Step (position in plan order) of each group. */
    std::vector<int> step_of_group_;
    /** Sub-graph index of each group (for per-subgraph timing). */
    std::vector<int> subgraph_of_group_;

    /** Compile-time skeleton of one DMP interval: everything except the
     *  concrete byte size, which binds per run (paper §4.4.1 — plan
     *  structure is static, sizes arrive with the input). */
    struct IntervalTemplate
    {
        ValueId value;
        int defStep;
        int lastUse;
        SymExprPtr bytesExpr;  ///< bytes as a symbolic expression
        std::shared_ptr<const BranchColors> colors;
    };
    std::vector<IntervalTemplate> interval_templates_;

    /** Per-group symbolic kernel-version selectors (MVC, §4.4.2). */
    std::vector<VersionSelector> selectors_;
    /** Precompiled input binder (the per-run fast path). */
    std::unique_ptr<SymbolBinder> binder_;
    /** Compile-time stackability proof (core/batchability.h). */
    BatchInfo batch_info_;
    /** Shape-signature plan cache (null when disabled). Internally
     *  synchronized — the one piece of shared state run() writes. */
    std::unique_ptr<PlanCache> plan_cache_;
    /** Shared all-unplanned offset table for runs without a DMP plan. */
    std::shared_ptr<const std::vector<size_t>> unplanned_offsets_;

    /** Process-wide metric handles ("engine.*", support/metrics.h),
     *  resolved once at compile time; observed only when tracing is
     *  enabled so the disabled hot path stays branch-only. */
    Counter* metric_runs_ = nullptr;
    Histogram* metric_run_us_ = nullptr;
    Histogram* metric_plan_us_ = nullptr;
    /** Failure-path counters ("engine.failed_runs" = typed failures
     *  surfaced by tryRun, "engine.fallback_runs" = requests served by
     *  the interpreter fallback). Cold path: always incremented,
     *  tracing on or off. */
    Counter* metric_failed_runs_ = nullptr;
    Counter* metric_fallback_runs_ = nullptr;

    /** Compile-time constant-folded values (seeded into every context's
     *  env template). */
    std::map<ValueId, Tensor> folded_;
    /** Groups whose every output is folded (skipped at runtime). */
    std::vector<bool> group_folded_;
    /** Per-value consumer counts (copied into each run's use tracker). */
    std::vector<int> base_remaining_uses_;

    /** True when construction adopted a CompiledArtifact. */
    bool loaded_from_snapshot_ = false;
};

}  // namespace sod2

#endif  // SOD2_CORE_SOD2_ENGINE_H_
