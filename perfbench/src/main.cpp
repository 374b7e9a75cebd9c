/**
 * @file
 * perfbench — the repository benchmark (see ../README.md).
 *
 *   perfbench --workload zoo_mixed|zoo_small|serve_codebert --seed N
 *             --seconds S --trace 0|1 [--digests FILE] [--out DIR]
 *             [--commit ID]
 *   perfbench --record-digests FILE
 *
 * Prints one metric per line, writes a run record (and, when traced, a
 * Chrome trace) under --out, and ends stdout with one JSON line:
 * {"correct", "attempted", "failed", "metrics"}, the metrics as the
 * workload measured them. Exits 1 when an output check or a request
 * failed, 4 when a traced run's time attribution is off.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "oracle.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Options
{
    RunArgs run;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
    std::string recordPath;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--digests FILE] [--out DIR] "
                 "[--commit ID]\n       perfbench --record-digests FILE\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            o.run.workload = value;
        else if (flag == "--seed")
            o.run.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            o.run.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            o.run.trace = value == "1";
        else if (flag == "--digests")
            o.run.digests = value;
        else if (flag == "--out")
            o.outDir = value;
        else if (flag == "--commit")
            o.commit = value;
        else if (flag == "--record-digests")
            o.recordPath = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    return o;
}

int
recordAllDigests(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        usage(("cannot write " + path).c_str());
    std::fprintf(f, "# model\tsize\toutput\tshape\tsum\tl1\twsum\n");
    int bad = 0;
    for (const std::string& name : sod2::allModelNames()) {
        ZooModel m = compileModel(buildSpec(name));
        bad += recordDigests(m, f);
        std::fprintf(stderr, "recorded %s (%zu sizes)\n", name.c_str(),
                     m.sizes.size());
    }
    std::fclose(f);
    return bad == 0 ? 0 : 1;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Host facts, build, commit, seed, sample counts and every metric. */
void
writeRecord(const std::string& path, const Options& o, const Report& r)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    __builtin_cpu_init();
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                 jsonString(o.run.workload).c_str(),
                 static_cast<unsigned long long>(o.run.seed));
    std::fprintf(f, "  \"seconds\": %s,\n  \"trace\": %d,\n",
                 jsonNumber(o.run.seconds).c_str(), o.run.trace ? 1 : 0);
    std::fprintf(f, "  \"commit\": %s,\n", jsonString(o.commit).c_str());
    std::fprintf(f,
                 "  \"host\": {\"nproc\": %u, \"avx2\": %s, "
                 "\"avx512f\": %s, \"compiler\": %s, \"build_type\": %s},\n",
                 std::thread::hardware_concurrency(),
                 __builtin_cpu_supports("avx2") ? "true" : "false",
                 __builtin_cpu_supports("avx512f") ? "true" : "false",
                 jsonString("gcc " __VERSION__).c_str(),
                 jsonString(PERFBENCH_BUILD_TYPE).c_str());
    std::fprintf(f, "  \"notes\": {");
    for (size_t i = 0; i < r.notes.size(); ++i)
        std::fprintf(f, "%s%s: %s", i ? ", " : "",
                     jsonString(r.notes[i].first).c_str(),
                     jsonString(r.notes[i].second).c_str());
    std::fprintf(f, "},\n  \"samples\": {");
    for (size_t i = 0; i < r.sampleCounts.size(); ++i)
        std::fprintf(f, "%s%s: %zu", i ? ", " : "",
                     jsonString(r.sampleCounts[i].first).c_str(),
                     r.sampleCounts[i].second);
    std::fprintf(f, "},\n  \"attempted\": %lld,\n  \"failed\": %lld,\n",
                 static_cast<long long>(r.attempted),
                 static_cast<long long>(r.failed));
    std::fprintf(f, "  \"correct\": %s,\n  \"metrics\": {",
                 r.correct ? "true" : "false");
    for (size_t i = 0; i < r.metrics.size(); ++i)
        std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                     i ? "," : "", jsonString(r.metrics[i].name).c_str(),
                     jsonNumber(r.metrics[i].value).c_str(),
                     jsonString(r.metrics[i].unit).c_str());
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
}

double
metricValue(const Report& r, const std::string& name)
{
    for (const Metric& m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

/**
 * Checks a traced run's time attribution: the traced replica's request
 * time (plan + Σ groups + unattributed) is within kTraceTolerance of the
 * untraced replica's on the same requests, and plan + Σ groups does not
 * exceed the request time it is part of by more than that.
 */
bool
traceConsistent(const Report& r)
{
    constexpr double kTraceTolerance = 0.05;
    double sum = metricValue(r, "trace.sum_vs_untraced");
    double unattributed = metricValue(r, "exec.unattributed_share");
    bool ok = std::fabs(sum - 1.0) <= kTraceTolerance &&
              unattributed >= -kTraceTolerance;
    if (!ok)
        std::fprintf(stderr,
                     "perfbench: traced attribution off: sum_vs_untraced "
                     "%.4f, unattributed_share %.4f (tolerance %.2f)\n",
                     sum, unattributed, kTraceTolerance);
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o = parseArgs(argc, argv);
    if (!o.recordPath.empty())
        return recordAllDigests(o.recordPath);

    const std::string& w = o.run.workload;
    if (w != "zoo_mixed" && w != "zoo_small" && w != "serve_codebert")
        usage(("unknown workload '" + w + "'").c_str());
    if (!(o.run.seconds > 0.0))
        usage("--seconds must be positive");
    if (o.run.digests.empty())
        usage("--digests is required");

    Report r = w == "serve_codebert" ? runServeWorkload(o.run)
                                     : runZooWorkload(o.run, w == "zoo_small");

    for (const Metric& m : r.metrics)
        std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto& [name, n] : r.sampleCounts)
        std::printf("samples %-24s %zu\n", name.c_str(), n);
    bool consistent = !o.run.trace || traceConsistent(r);

    std::filesystem::create_directories(o.outDir);
    std::string stem = o.outDir + "/" + w + "_seed" +
                       std::to_string(o.run.seed) +
                       (o.run.trace ? "_traced" : "");
    writeRecord(stem + ".record.json", o, r);
    if (o.run.trace &&
        !SpanRecorder::instance().writeChromeJson(stem + ".trace.json"))
        std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());

    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        json += (i ? ", " : "") + jsonString(r.metrics[i].name) +
                ": {\"value\": " + jsonNumber(r.metrics[i].value) +
                ", \"unit\": " + jsonString(r.metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    if (!(r.correct && r.failed == 0))
        return 1;
    return consistent ? 0 : 4;
}
