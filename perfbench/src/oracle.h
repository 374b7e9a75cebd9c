#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

/**
 * @file
 * Output oracle. Every timed request is checked, outside its timed
 * span, two ways:
 *
 *  (a) against the unfused reference Interpreter on the same inputs,
 *      within kTolerance. The interpreter runs once per distinct key
 *      after the timed phase; every request of a key must match the
 *      key's first engine output, and that one must match the
 *      interpreter.
 *  (b) against output digests (sum, L1 norm and a position-weighted
 *      sum per output) recorded once for every key and committed as
 *      digests.tsv. The engine and the interpreter share kernels/, so
 *      (b) still catches a kernel change that breaks both.
 */

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "zoo.h"

namespace perfbench {

/** Per-output digest of one request's results. */
struct Digest
{
    std::string shape;
    double sum = 0.0;
    double l1 = 0.0;
    double wsum = 0.0;  ///< sum of x[i] * (1 + i % 7)
};

std::vector<Digest> digestOf(const std::vector<sod2::Tensor>& outputs);

/** True when @p a and @p b agree in shape and within tolerance. */
bool outputsClose(const std::vector<sod2::Tensor>& a,
                  const std::vector<sod2::Tensor>& b);

/** Writes one digests.tsv line per output of every key of @p m;
 *  returns the number of keys whose engine output disagreed with the
 *  interpreter (those are not written). */
int recordDigests(ZooModel& m, std::FILE* out);

class Oracle
{
  public:
    /** Loads digests.tsv; a missing file fails every check. */
    explicit Oracle(const std::string& digest_path);

    /**
     * Checks one request's engine outputs. Call right after the run,
     * before the model's context runs again (outputs alias its arena).
     * Returns false (and counts a mismatch) on a digest mismatch or a
     * disagreement with the key's first output.
     */
    bool check(const ZooModel& m, int64_t size,
               const std::vector<sod2::Tensor>& outputs);

    /** Runs the interpreter once per distinct key seen; every request
     *  of a key that disagrees counts as a mismatch. */
    void finish();

    int64_t mismatches() const { return mismatches_; }
    size_t interpreterChecks() const { return interp_checks_; }
    bool digestsLoaded() const { return !table_.empty(); }
    /** First few mismatch descriptions. */
    const std::vector<std::string>& errors() const { return errors_; }

  private:
    using Key = std::pair<std::string, int64_t>;
    struct Seen
    {
        std::vector<sod2::Tensor> first;
        int64_t requests = 0;
    };

    void fail(const std::string& what);

    std::map<Key, std::vector<Digest>> table_;
    std::map<Key, Seen> seen_;
    /** Spec of every model seen (copies share the graph), so checks
     *  outlive the engines that produced the outputs. */
    std::map<std::string, sod2::ModelSpec> specs_;
    int64_t mismatches_ = 0;
    size_t interp_checks_ = 0;
    std::vector<std::string> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
