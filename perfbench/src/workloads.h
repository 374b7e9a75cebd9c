#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * Workload entry points and the closed-loop pass they share.
 *
 * An untraced run (trace = false) fills every end-to-end metric. A
 * traced run fills every per-layer metric from a second, traced replica
 * of the engines that runs the same requests as an untraced one; their
 * p50 difference is the tracing overhead.
 */

#include <string>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "zoo.h"

namespace perfbench {

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
};

Report runZooWorkload(const RunArgs& args, bool small);
Report runServeWorkload(const RunArgs& args);

/** One request of a closed-loop pass: which model, at which size. */
struct Draw
{
    int model = 0;
    int64_t size = 0;
};

/** What one closed-loop pass measured. */
struct PassStats
{
    std::vector<double> latency;  ///< seconds, one per completed request
    std::vector<int> model;       ///< model index of each latency
    double busy = 0.0;            ///< sum of request times, seconds
    int64_t attempted = 0;
    int64_t failed = 0;           ///< typed engine failures
    // Layer counters from RunStats (and signatureFor when traced).
    std::vector<double> bindUs, planUs, arenaMib, groupUs;
    double peakMib = 0.0;
    double dynamicMibMax = 0.0;
    double classSeconds[kNumGroupClasses] = {};
    double planSeconds = 0.0;
    double groupSeconds = 0.0;
    int64_t executedGroups = 0;
};

/**
 * Runs @p draws in order, one at a time, until @p budget seconds of
 * request time. Each request's outputs go through @p oracle outside
 * the timed span.
 */
PassStats runPass(std::vector<ZooModel>& zoo, const std::vector<Draw>& draws,
                  double budget, Oracle& oracle);

/** The two replicas of runTracedPair. */
struct PassPair
{
    PassStats plain;
    PassStats traced;
};

/**
 * Runs @p draws on two identically set-up zoos in lockstep, request by
 * request, the second with spans on: each request gets a root span with
 * core.bind (signatureFor) and core.run children. Stops when the two
 * request-time sums reach @p budget together. Host drift hits both
 * replicas alike, so their difference is the tracing overhead.
 */
PassPair runTracedPair(std::vector<ZooModel>& plain,
                       std::vector<ZooModel>& traced,
                       const std::vector<Draw>& draws, double budget,
                       Oracle& oracle);

/** Adds the core/memory/exec per-layer metrics of a traced pass. */
void addPassLayerMetrics(Report& r, const PassStats& traced);

/** Adds core.plan_hit_ratio, core.plan_lookups, core.plan_coalesced and
 *  core.context_hits from cache counters taken around a traced pass. */
void addCacheMetrics(Report& r, const sod2::PlanCache::Counters& before,
                     const sod2::PlanCache::Counters& after);

/** Sets r.correct from @p oracle (and oracle.* when @p traced, once
 *  r.attempted and r.failed are final); prints the oracle's errors. */
void closeReport(Report& r, const Oracle& oracle, bool traced);

/** Times runRdp, buildRdpFusionPlan, buildExecutionPlan, compilePlan
 *  and the Sod2Engine constructor on @p models (rdp.*, fusion.*,
 *  planning.*, core.engine_ctor_ms). */
void addCompileMetrics(Report& r, const std::vector<std::string>& models);

/** Times conv2d, gemmF32 and a fused 12-op chain on fixed zoo-derived
 *  shapes (kernels.*). */
void addKernelMetrics(Report& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
