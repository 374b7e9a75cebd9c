/** Tests for engine snapshotting (core/snapshot) and the serving
 *  scheduler's blue/green engine swap: zoo-wide save/load roundtrip
 *  bit-exactness, typed stale/corrupt rejection with clean-compile
 *  fallback, warm plan-cache restoration, engine lifecycle edges
 *  (source destroyed before/while loading, warmup on a loaded engine),
 *  and zero-drop admission swaps under a multi-threaded storm. */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "core/snapshot.h"
#include "core/sod2_engine.h"
#include "graph/builder.h"
#include "models/model_zoo.h"
#include "serving/server.h"
#include "support/logging.h"
#include "support/rng.h"

namespace sod2 {
namespace {

using serving::Request;
using serving::ServerOptions;
using serving::ServerStats;
using serving::Sod2Server;
using serving::SwapOptions;

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string& tag)
{
    std::string dir = ::testing::TempDir() + "sod2_snap_" + tag;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** Byte-exact copy of a run's outputs. */
std::vector<std::vector<uint8_t>>
bytesOf(const std::vector<Tensor>& outputs)
{
    std::vector<std::vector<uint8_t>> bytes;
    bytes.reserve(outputs.size());
    for (const Tensor& t : outputs) {
        const uint8_t* p = static_cast<const uint8_t*>(t.raw());
        bytes.emplace_back(p, p + t.byteSize());
    }
    return bytes;
}

/** Small dynamic CNN (mirrors serving_test's model): conv -> relu ->
 *  pool -> reshape -> matmul -> gelu, symbolic n/h/w. */
struct TestModel
{
    Graph graph;
    RdpOptions rdp;

    static TestModel
    cnn(uint64_t seed = 41)
    {
        TestModel m;
        GraphBuilder b(&m.graph);
        Rng rng(seed);
        ValueId x = b.input("x");
        ValueId w1 = b.weight("w1", {8, 3, 3, 3}, rng);
        ValueId c1 = b.relu(b.conv2d(x, w1, -1, 2, 1));
        ValueId p1 = b.maxPool(c1, 2, 2);
        ValueId gap = b.globalAvgPool(p1);
        ValueId flat = b.reshape(gap, {0, -1});
        ValueId w2 = b.weight("w2", {8, 4}, rng);
        b.output(b.gelu(b.matmul(flat, w2)));

        m.rdp.inputShapes["x"] = ShapeInfo::ranked(
            {DimValue::symbol("n"), DimValue::known(3),
             DimValue::symbol("h"), DimValue::symbol("w")});
        return m;
    }

    Sod2Options
    options() const
    {
        Sod2Options opts;
        opts.rdp = rdp;
        return opts;
    }
};

Tensor
cnnInput(int64_t n, int64_t h, int64_t w, uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randomUniform(Shape({n, 3, h, w}), rng);
}

// --- format basics ----------------------------------------------------

TEST(SnapshotFormat, PathSanitizesModelNames)
{
    EXPECT_EQ(snapshotPathFor("/tmp/d", "CodeBERT"),
              "/tmp/d/CodeBERT.sod2snap");
    EXPECT_EQ(snapshotPathFor("d", "SDE v2/large"),
              "d/SDE_v2_large.sod2snap");
    EXPECT_EQ(snapshotPathFor("d", ""), "d/model.sod2snap");
}

TEST(SnapshotFormat, HashesDiscriminate)
{
    TestModel a = TestModel::cnn(41);
    TestModel b = TestModel::cnn(43);  // different weights
    EXPECT_NE(snapshotGraphHash(a.graph), snapshotGraphHash(b.graph));
    EXPECT_EQ(snapshotGraphHash(a.graph), snapshotGraphHash(a.graph));

    Sod2Options base = a.options();
    Sod2Options nofuse = a.options();
    nofuse.fusion = FusionMode::kNone;
    EXPECT_NE(snapshotOptionsHash(base), snapshotOptionsHash(nofuse));
    EXPECT_EQ(snapshotOptionsHash(base), snapshotOptionsHash(base));
}

TEST(SnapshotFormat, DefaultOptionsHashIsStable)
{
    // Pinned value: snapshots written by earlier builds must keep
    // loading, so the default options fingerprint may not drift when
    // options outside it (or empty ones inside it) are removed.
    EXPECT_EQ(snapshotOptionsHash(Sod2Options{}), 15371097013803145383u);
}

// --- roundtrip over the model zoo -------------------------------------

class ZooSnapshot : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooSnapshot, RoundtripIsBitExact)
{
    Rng rng(7);
    ModelSpec spec = buildModel(GetParam(), rng);
    Sod2Options opts;
    opts.rdp = spec.rdp;

    Sod2Engine compiled(spec.graph.get(), opts);
    Rng sample_rng(11);
    std::vector<Tensor> inputs =
        spec.sample(sample_rng, spec.legalizeSize(spec.minSize));
    auto want = bytesOf(compiled.run(inputs));

    std::string path =
        snapshotPathFor(scratchDir("zoo"), spec.name);
    saveSnapshot(compiled, path);

    SnapshotStatus status = SnapshotStatus::kDisabled;
    std::string detail;
    std::unique_ptr<Sod2Engine> loaded =
        loadSnapshot(spec.graph.get(), opts, path, &status, &detail);
    ASSERT_NE(loaded, nullptr) << detail;
    EXPECT_EQ(status, SnapshotStatus::kLoaded);
    EXPECT_TRUE(loaded->loadedFromSnapshot());
    EXPECT_FALSE(compiled.loadedFromSnapshot());

    // The adopted artifact reproduces the compiled engine exactly:
    // same fusion partition, same execution order, same outputs bits.
    EXPECT_EQ(loaded->fusionPlan().groups.size(),
              compiled.fusionPlan().groups.size());
    EXPECT_EQ(loaded->executionPlan().order, compiled.executionPlan().order);
    EXPECT_EQ(bytesOf(loaded->run(inputs)), want);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, ZooSnapshot,
                         ::testing::ValuesIn(allModelNames()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

// --- load-or-compile fallback ladder ----------------------------------

TEST(Snapshot, MissingCompilesThenWritesThenLoads)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("missing") + "/cnn.sod2snap";
    std::remove(path.c_str());

    SnapshotStatus status = SnapshotStatus::kDisabled;
    auto first = loadOrCompile(&m.graph, m.options(), path, &status);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(status, SnapshotStatus::kMissing);
    EXPECT_FALSE(first->loadedFromSnapshot());

    // The clean compile rewrote the snapshot; the second boot adopts it.
    auto second = loadOrCompile(&m.graph, m.options(), path, &status);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(status, SnapshotStatus::kLoaded);
    EXPECT_TRUE(second->loadedFromSnapshot());
}

TEST(Snapshot, StaleOnGraphChange)
{
    TestModel saved = TestModel::cnn(41);
    TestModel changed = TestModel::cnn(43);
    std::string path = scratchDir("staleg") + "/cnn.sod2snap";
    Sod2Engine engine(&saved.graph, saved.options());
    saveSnapshot(engine, path);

    SnapshotStatus status = SnapshotStatus::kDisabled;
    std::string detail;
    EXPECT_EQ(loadSnapshot(&changed.graph, changed.options(), path,
                           &status, &detail),
              nullptr);
    EXPECT_EQ(status, SnapshotStatus::kStale);
    EXPECT_NE(detail.find("graph hash"), std::string::npos) << detail;

    // loadOrCompile falls back to a clean compile, never misexecutes.
    auto fallback =
        loadOrCompile(&changed.graph, changed.options(), path, &status);
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(status, SnapshotStatus::kStale);
    EXPECT_FALSE(fallback->loadedFromSnapshot());
}

TEST(Snapshot, StaleOnOptionsChange)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("staleo") + "/cnn.sod2snap";
    Sod2Engine engine(&m.graph, m.options());
    saveSnapshot(engine, path);

    Sod2Options nofuse = m.options();
    nofuse.fusion = FusionMode::kNone;
    SnapshotStatus status = SnapshotStatus::kDisabled;
    std::string detail;
    EXPECT_EQ(loadSnapshot(&m.graph, nofuse, path, &status, &detail),
              nullptr);
    EXPECT_EQ(status, SnapshotStatus::kStale);
    EXPECT_NE(detail.find("options"), std::string::npos) << detail;
}

TEST(Snapshot, CorruptBodyRejectedWithFallback)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("corrupt") + "/cnn.sod2snap";
    Sod2Engine engine(&m.graph, m.options());
    saveSnapshot(engine, path);

    // Valid header, scribbled body: the "order" section keyword is
    // misspelled, so the parser rejects the file as corrupt.
    std::string text = readFile(path);
    size_t pos = text.find("\norder ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "\nodder ");
    writeFile(path, text);

    SnapshotStatus status = SnapshotStatus::kDisabled;
    std::string detail;
    EXPECT_EQ(loadSnapshot(&m.graph, m.options(), path, &status, &detail),
              nullptr);
    EXPECT_EQ(status, SnapshotStatus::kCorrupt);

    auto fallback = loadOrCompile(&m.graph, m.options(), path, &status);
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(status, SnapshotStatus::kCorrupt);
    EXPECT_FALSE(fallback->loadedFromSnapshot());
    // ...and the fallback compile healed the file in place.
    SnapshotStatus healed = SnapshotStatus::kDisabled;
    EXPECT_NE(loadSnapshot(&m.graph, m.options(), path, &healed), nullptr);
    EXPECT_EQ(healed, SnapshotStatus::kLoaded);
}

TEST(Snapshot, TruncatedFileIsNeverAdopted)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("trunc") + "/cnn.sod2snap";
    Sod2Engine engine(&m.graph, m.options());
    saveSnapshot(engine, path);
    std::string text = readFile(path);

    // Cut the file at every eighth of its length: each prefix must be
    // rejected (stale or corrupt), never adopted, never fatal.
    for (size_t num = 1; num < 8; ++num) {
        writeFile(path, text.substr(0, text.size() * num / 8));
        SnapshotStatus status = SnapshotStatus::kLoaded;
        EXPECT_EQ(loadSnapshot(&m.graph, m.options(), path, &status),
                  nullptr);
        EXPECT_TRUE(status == SnapshotStatus::kCorrupt ||
                    status == SnapshotStatus::kStale)
            << snapshotStatusName(status) << " at prefix " << num << "/8";
    }
}

// --- warm plan-cache restoration --------------------------------------

TEST(Snapshot, WarmPlansAreResidentAfterLoad)
{
    TestModel m = TestModel::cnn();
    Sod2Engine engine(&m.graph, m.options());
    std::vector<Tensor> inputs = {cnnInput(1, 16, 16, 5)};
    engine.run(inputs);  // makes the signature's plan cache-resident

    std::string path = scratchDir("warm") + "/cnn.sod2snap";
    saveSnapshot(engine, path);

    auto loaded = loadSnapshot(&m.graph, m.options(), path);
    ASSERT_NE(loaded, nullptr);
    // The warm entry was re-instantiated at load: the first run of the
    // saved signature is already a plan-cache hit.
    RunStats stats;
    auto want = bytesOf(engine.run(inputs));
    EXPECT_EQ(bytesOf(loaded->run(inputs, &stats)), want);
    EXPECT_TRUE(stats.planCacheHit);
}

// --- lifecycle edges (satellite #5) -----------------------------------

TEST(SnapshotLifecycle, OutlivesItsSourceEngine)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("outlive") + "/cnn.sod2snap";
    {
        Sod2Engine engine(&m.graph, m.options());
        saveSnapshot(engine, path);
    }  // source engine destroyed; the file is self-contained

    auto loaded = loadSnapshot(&m.graph, m.options(), path);
    ASSERT_NE(loaded, nullptr);
    std::vector<Tensor> inputs = {cnnInput(1, 12, 12, 3)};
    EXPECT_EQ(loaded->run(inputs).size(), 1u);
}

TEST(SnapshotLifecycle, SourceDestructionDuringLoadInFlight)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("race") + "/cnn.sod2snap";
    auto source = std::make_unique<Sod2Engine>(&m.graph, m.options());
    source->run({cnnInput(1, 16, 16, 9)});  // warm entry in the file
    saveSnapshot(*source, path);

    // Load in one thread while the source engine is torn down in
    // another: the snapshot borrows nothing from the source, so the
    // load must succeed.
    std::unique_ptr<Sod2Engine> loaded;
    std::thread loader(
        [&] { loaded = loadSnapshot(&m.graph, m.options(), path); });
    source.reset();
    loader.join();
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->run({cnnInput(1, 16, 16, 9)}).size(), 1u);
}

TEST(SnapshotLifecycle, WarmupOnSnapshotLoadedEngine)
{
    TestModel m = TestModel::cnn();
    std::string path = scratchDir("warmup") + "/cnn.sod2snap";
    Sod2Engine engine(&m.graph, m.options());
    saveSnapshot(engine, path);

    auto loaded = loadSnapshot(&m.graph, m.options(), path);
    ASSERT_NE(loaded, nullptr);
    std::vector<Tensor> inputs = {cnnInput(2, 20, 20, 13)};
    EXPECT_TRUE(loaded->warmup(inputs));
    RunStats stats;
    loaded->run(inputs, &stats);
    EXPECT_TRUE(stats.planCacheHit);
}

// --- blue/green engine swap -------------------------------------------

/** Engine pair sharing one graph: blue compiled, green adopted from
 *  blue's snapshot — the production swap scenario. */
struct SwapFixture
{
    TestModel model = TestModel::cnn();
    Sod2Engine blue;
    std::unique_ptr<Sod2Engine> green;

    SwapFixture() : blue(&model.graph, model.options())
    {
        std::string path = scratchDir("swap") + "/cnn.sod2snap";
        saveSnapshot(blue, path);
        green = loadSnapshot(&model.graph, model.options(), path);
        SOD2_CHECK(green != nullptr);
    }

    Tensor
    input(int which, uint64_t seed) const
    {
        static const int64_t kHeights[] = {12, 16, 20, 24};
        return cnnInput(1 + which % 2, kHeights[which % 4],
                        kHeights[(which + 1) % 4], seed);
    }
};

TEST(EngineSwap, SwapUnderStormDropsNothing)
{
    SwapFixture f;
    ServerOptions opts;
    opts.workers = 4;
    opts.queueDepth = 4096;
    Sod2Server server(&f.blue, opts);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 40;
    std::atomic<bool> swapped{false};
    std::vector<std::vector<std::future<RunResult>>> futures(kThreads);
    std::vector<std::thread> storm;
    storm.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        storm.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                Request req;
                req.inputs = {f.input((t + i) % 4, 100 + i)};
                req.priority = i % 3;
                futures[t].push_back(server.submit(std::move(req)));
                if (t == 0 && i == kPerThread / 2) {
                    // Mid-storm cutover to the snapshot-loaded engine;
                    // returns only once every blue future is resolved.
                    std::vector<Tensor> warm = {f.input(0, 1)};
                    SwapOptions sw;
                    sw.warmupInputs.push_back(&warm);
                    EXPECT_EQ(server.swapEngine(f.green.get(), sw), 0u);
                    swapped.store(true);
                }
            }
        });
    for (auto& th : storm)
        th.join();
    EXPECT_TRUE(swapped.load());
    EXPECT_EQ(&server.engine(), f.green.get());

    // Zero drops: every submitted future resolves ok, and the two
    // engines are bit-identical, so results match a direct blue run.
    RunContext ctx;
    size_t resolved = 0;
    for (int t = 0; t < kThreads; ++t)
        for (size_t i = 0; i < futures[t].size(); ++i) {
            RunResult served = futures[t][i].get();
            ASSERT_TRUE(served.ok())
                << errorCodeName(served.code) << ": " << served.message;
            std::vector<Tensor> inputs = {
                f.input((t + static_cast<int>(i)) % 4,
                        100 + static_cast<uint64_t>(i))};
            EXPECT_EQ(bytesOf(served.outputs),
                      bytesOf(f.blue.run(ctx, inputs)));
            ++resolved;
        }
    EXPECT_EQ(resolved, static_cast<size_t>(kThreads * kPerThread));

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.discarded, 0u);
    EXPECT_EQ(stats.expired, 0u);
}

TEST(EngineSwap, HardCutoverShedsQueuedBlueTyped)
{
    SwapFixture f;
    ServerOptions opts;
    opts.workers = 2;
    opts.startPaused = true;  // nothing dequeues: queue state is exact
    Sod2Server server(&f.blue, opts);

    std::vector<std::future<RunResult>> queued;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.inputs = {f.input(i, 50 + i)};
        queued.push_back(server.submit(std::move(req)));
    }

    SwapOptions sw;
    sw.hardCutover = true;
    EXPECT_EQ(server.swapEngine(f.green.get(), sw), 6u);

    for (auto& fut : queued) {
        RunResult shed = fut.get();
        EXPECT_EQ(shed.code, ErrorCode::kShutdown);
        EXPECT_NE(shed.message.find("superseded"), std::string::npos);
    }
    EXPECT_EQ(server.stats().discarded, 6u);

    // Post-cutover requests run on green as usual.
    server.start();
    Request req;
    req.inputs = {f.input(0, 77)};
    EXPECT_TRUE(server.submit(std::move(req)).get().ok());
}

TEST(EngineSwap, DrainDuringSwapResolvesEverything)
{
    SwapFixture f;
    ServerOptions opts;
    opts.workers = 2;
    Sod2Server server(&f.blue, opts);

    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 24; ++i) {
        Request req;
        req.inputs = {f.input(i, 200 + i)};
        futures.push_back(server.submit(std::move(req)));
    }
    // drain() racing the swap's own drain phase: both wait for the
    // same futures; neither may hang or drop work.
    std::thread drainer([&] { server.drain(); });
    EXPECT_EQ(server.swapEngine(f.green.get(), {}), 0u);
    drainer.join();
    for (auto& fut : futures)
        EXPECT_TRUE(fut.get().ok());
    EXPECT_EQ(server.stats().completed, 24u);
}

TEST(EngineSwap, RepeatedSwapsPingPong)
{
    SwapFixture f;
    ServerOptions opts;
    opts.workers = 2;
    Sod2Server server(&f.blue, opts);

    for (int round = 0; round < 4; ++round) {
        const Sod2Engine* next =
            round % 2 == 0 ? f.green.get() : &f.blue;
        std::vector<std::future<RunResult>> futures;
        for (int i = 0; i < 8; ++i) {
            Request req;
            req.inputs = {f.input(i, 300 + i)};
            futures.push_back(server.submit(std::move(req)));
        }
        EXPECT_EQ(server.swapEngine(next, {}), 0u);
        EXPECT_EQ(&server.engine(), next);
        for (auto& fut : futures)
            EXPECT_TRUE(fut.get().ok());
    }
    EXPECT_EQ(server.stats().completed, 32u);
    EXPECT_EQ(server.stats().shed, 0u);
}

// --- env-driven factory (declared last: first use wins the env cache) -

TEST(SnapshotEnv, LoadOrCompileFromEnvHonorsDir)
{
    std::string dir = scratchDir("env");
    ::setenv("SOD2_SNAPSHOT_DIR", dir.c_str(), 1);
    TestModel m = TestModel::cnn();
    // Hermetic against earlier runs: the scratch dir is stable across
    // processes, and a leftover snapshot would make the first boot load.
    std::remove(snapshotPathFor(dir, "cnn").c_str());

    SnapshotStatus status = SnapshotStatus::kLoaded;
    auto first =
        loadOrCompileFromEnv(&m.graph, m.options(), "cnn", &status);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(status, SnapshotStatus::kMissing);
    struct ::stat st;
    EXPECT_EQ(::stat(snapshotPathFor(dir, "cnn").c_str(), &st), 0);

    auto second =
        loadOrCompileFromEnv(&m.graph, m.options(), "cnn", &status);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(status, SnapshotStatus::kLoaded);
    EXPECT_TRUE(second->loadedFromSnapshot());
}

}  // namespace
}  // namespace sod2
