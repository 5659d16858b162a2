/**
 * @file
 * The fault-tolerance capstone: a live serve engine driven through a
 * seeded fault schedule must degrade -- structured, documented errors;
 * successes byte-identical to a fault-free run -- and never crash,
 * deadlock, or corrupt a cache. Also pins the satellite guarantees:
 * kill -9 mid-saveCache never yields a torn (Malformed) cache file,
 * deadlines surface as structured "deadline" errors and leave the
 * engine healthy, admission control sheds with a retryAfterMs hint,
 * size caps reject with "toolarge", and a corrupt catalog degrades to
 * a cold fit at every load site (transpile CLI, sweep, serve startup,
 * catalog stats).
 *
 * Carries the pipeline + concurrency labels: the chaos run exercises
 * the engine's locking under connection churn, so the TSan job picks
 * it up.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "cli/cli.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "decomp/equivalence.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"

using namespace mirage;

namespace {

/** The committed fit catalog at the repo root (tests/ is one below). */
const char *const kCatalogPath =
    MIRAGE_TEST_DATA_DIR "/../FIT_CATALOG.bin";

/**
 * A path under the test temp dir that is private to this process: ctest
 * runs every discovered test as its own process, concurrently, so a
 * shared name would let one test truncate a file a sibling is reading.
 */
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + std::to_string(::getpid()) + "-" + name;
}

/** Every test here leaves the process disarmed, whatever happens. */
class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarm(); }
    void TearDown() override { fault::disarm(); }
};

json::Value
handleParsed(serve::Engine &engine, const std::string &line)
{
    return json::parse(engine.handle(line));
}

/** A request line for `qasm` with small deterministic options. */
std::string
requestLine(int id, const std::string &qasm,
            const std::string &options =
                "{\"trials\":2,\"swapTrials\":1,\"fwdBwd\":1}")
{
    json::Value doc = json::Value::object();
    doc.set("id", id);
    doc.set("qasm", qasm);
    doc.set("options", json::parse(options));
    return doc.dump(0);
}

// --- the capstone -----------------------------------------------------------

TEST_F(ChaosTest, SeededChaosRunSurvivesAndDegrades)
{
    serve::ChaosOptions opts;
    opts.workDir = tempPath("chaos-run");
    std::ostringstream log;
    json::Value artifact;
    ASSERT_NO_THROW(artifact = serve::runChaos(opts, log))
        << "a throw here means the server stopped answering -- the one "
           "forbidden outcome\n"
        << log.str();

    SCOPED_TRACE(log.str());
    const json::Value &results = artifact["results"];
    // Zero crashes/deadlocks is implied by getting an artifact at all;
    // now the degradation must have been clean and real.
    EXPECT_TRUE(artifact["pass"].asBool()) << artifact.dump(2);
    EXPECT_TRUE(results["bitIdentical"].asBool())
        << "an injected fault corrupted a success response";
    EXPECT_EQ(results["undocumentedCodes"].size(), 0u)
        << "an error code escaped the documented taxonomy: "
        << results["undocumentedCodes"].dump(0);
    EXPECT_GE(results["faultKindsInjected"].asInt(), 6)
        << artifact.dump(2);
    EXPECT_GT(results["okResponses"].asInt(), 0);
    EXPECT_GT(results["errorResponses"].asInt(), 0)
        << "a chaos run where nothing failed exercised nothing";
    EXPECT_TRUE(results["catalogDegraded"].asBool())
        << "the injected catalog.load fault must degrade startup";
    EXPECT_EQ(artifact["parameters"]["requests"].asInt(), 200);
    EXPECT_EQ(artifact["kind"].asString(),
              std::string(serve::kServeChaosKind));
    // The run is seeded end to end; the injection census is part of
    // what makes a failure reproducible, so it must be non-trivial.
    EXPECT_GT(results["totalInjected"].asInt(), 10);
}

// --- crash-safe persistence -------------------------------------------------

TEST_F(ChaosTest, SigkillMidSaveNeverYieldsTornCache)
{
    using Status = decomp::EquivalenceLibrary::CacheLoadStatus;

    // A real, heavyweight library: the committed catalog (~400 KiB of
    // entries) so the save takes long enough for SIGKILL to land
    // mid-write at least sometimes.
    decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
    ASSERT_EQ(lib.loadCacheFileDetailed(kCatalogPath).status, Status::Ok)
        << "committed FIT_CATALOG.bin must load";

    const std::string dir = tempPath("killsave");
    std::filesystem::create_directories(dir);
    const std::string target = dir + "/eqlib-root2.cache";

    for (int round = 0; round < 6; ++round) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: save in a tight loop until killed. _exit, never
            // exit: no gtest/atexit machinery may run here.
            for (;;)
                lib.saveCacheFile(target);
            ::_exit(0); // unreachable
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + 2 * round));
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status));

        // The target must be the complete old file or the complete new
        // file -- a missing file is fine on round 0, a torn prefix
        // (Malformed) never is.
        decomp::EquivalenceLibrary probe(2, /*preseed=*/false);
        const auto load = probe.loadCacheFileDetailed(target);
        EXPECT_NE(load.status, Status::Malformed)
            << "round " << round
            << ": SIGKILL mid-save produced a torn cache: "
            << load.message;
        if (load.status == Status::Ok) {
            EXPECT_EQ(probe.cacheSize(), lib.cacheSize());
        }
    }
}

// --- deadlines --------------------------------------------------------------

TEST_F(ChaosTest, DeadlineSurfacesStructuredErrorAndEngineStaysHealthy)
{
    serve::Engine engine;
    // Heavy enough that 1 ms cannot cover routing: 12 qubits, 80
    // entangling gates, 8x4 trial grid.
    const std::string heavy = serve::syntheticQasm(0, 12, 80, 1);
    json::Value doc = handleParsed(
        engine,
        requestLine(1, heavy,
                    "{\"trials\":8,\"swapTrials\":4,\"fwdBwd\":2,"
                    "\"topology\":\"grid4x4\",\"deadlineMs\":1}"));
    ASSERT_FALSE(doc["ok"].asBool())
        << "a 1 ms budget must not cover an 8x4 trial grid";
    EXPECT_EQ(doc["error"]["code"].asString(), "deadline");
    EXPECT_EQ(engine.counters().deadlines, 1u);

    // The worker that died of the deadline must be fully healthy: the
    // SAME circuit without a deadline now completes.
    json::Value retry = handleParsed(
        engine, requestLine(2, heavy,
                            "{\"trials\":8,\"swapTrials\":4,\"fwdBwd\":2,"
                            "\"topology\":\"grid4x4\"}"));
    EXPECT_TRUE(retry["ok"].asBool()) << retry.dump(0);
}

TEST_F(ChaosTest, ServerDeadlineCapsClientBudget)
{
    serve::EngineOptions eopts;
    eopts.deadlineMs = 1; // server-wide cap
    serve::Engine engine(eopts);
    const std::string heavy = serve::syntheticQasm(0, 12, 80, 1);
    // The client asks for a generous budget; the server's cap wins.
    json::Value doc = handleParsed(
        engine,
        requestLine(1, heavy,
                    "{\"trials\":8,\"swapTrials\":4,\"fwdBwd\":2,"
                    "\"topology\":\"grid4x4\",\"deadlineMs\":60000}"));
    ASSERT_FALSE(doc["ok"].asBool());
    EXPECT_EQ(doc["error"]["code"].asString(), "deadline");
}

TEST_F(ChaosTest, TranspileCliHonorsDeadlineFlag)
{
    const std::string path = tempPath("deadline.qasm");
    {
        std::ofstream f(path);
        f << serve::syntheticQasm(0, 12, 80, 1);
    }
    std::ostringstream out, err;
    const int code = cli::run({"transpile", path, "--topology", "grid4x4",
                               "--trials", "8", "--swap-trials", "4",
                               "--deadline-ms", "1"},
                              out, err);
    EXPECT_EQ(code, cli::kExitFailure);
    EXPECT_NE(err.str().find("deadline"), std::string::npos) << err.str();

    // Invalid budgets are usage errors, not runtime ones.
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::run({"transpile", path, "--deadline-ms", "-5"}, out2,
                       err2),
              cli::kExitUsage);
}

// --- admission control ------------------------------------------------------

TEST_F(ChaosTest, AdmissionShedsWithRetryAfterHint)
{
    fault::arm("seed=1,queue.admit=#1"); // exactly the first admission
    serve::Engine engine;
    const std::string qasm = serve::syntheticQasm(1, 4, 8, 2);

    json::Value shed = handleParsed(engine, requestLine(1, qasm));
    ASSERT_FALSE(shed["ok"].asBool());
    EXPECT_EQ(shed["error"]["code"].asString(), "overloaded");
    const json::Value *retry = shed["error"].find("retryAfterMs");
    ASSERT_NE(retry, nullptr)
        << "overloaded must carry a backoff hint: " << shed.dump(0);
    EXPECT_GT(retry->asNumber(), 0.0);
    EXPECT_EQ(engine.counters().shed, 1u);

    // One-shot: the retry is admitted and completes.
    json::Value ok = handleParsed(engine, requestLine(2, qasm));
    EXPECT_TRUE(ok["ok"].asBool()) << ok.dump(0);
}

TEST_F(ChaosTest, SizeCapsRejectWithToolarge)
{
    serve::EngineOptions eopts;
    eopts.maxQubits = 3;
    serve::Engine engine(eopts);
    json::Value doc =
        handleParsed(engine, requestLine(1, serve::syntheticQasm(0, 4, 6, 3)));
    ASSERT_FALSE(doc["ok"].asBool());
    EXPECT_EQ(doc["error"]["code"].asString(), "toolarge");
    EXPECT_EQ(engine.counters().tooLarge, 1u);

    serve::EngineOptions gopts;
    gopts.maxGates = 2;
    serve::Engine gateCapped(gopts);
    json::Value doc2 = handleParsed(
        gateCapped, requestLine(2, serve::syntheticQasm(0, 4, 6, 3)));
    ASSERT_FALSE(doc2["ok"].asBool());
    EXPECT_EQ(doc2["error"]["code"].asString(), "toolarge");

    // Within the caps: served normally.
    serve::EngineOptions okopts;
    okopts.maxQubits = 16;
    okopts.maxGates = 10000;
    serve::Engine roomy(okopts);
    EXPECT_TRUE(
        handleParsed(roomy, requestLine(3, serve::syntheticQasm(0, 4, 6, 3)))
            ["ok"]
                .asBool());
}

// --- corrupt caches degrade at every load site ------------------------------

/** A file that opens fine but cannot be a catalog: Malformed, not
 * Unreadable, at every load site. */
std::string
writeCorruptCatalog(const std::string &name)
{
    const std::string path = tempPath(name);
    std::ofstream f(path);
    f << "this is not a mirage-eqlib cache\n";
    return path;
}

TEST_F(ChaosTest, CorruptCatalogIsMalformedNotUnreadable)
{
    using Status = decomp::EquivalenceLibrary::CacheLoadStatus;
    const std::string corrupt = writeCorruptCatalog("corrupt-unit.bin");
    decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
    const auto load = lib.loadCacheFileDetailed(corrupt);
    EXPECT_EQ(load.status, Status::Malformed);
    EXPECT_FALSE(load.message.empty());

    decomp::EquivalenceLibrary lib2(2, /*preseed=*/false);
    const auto missing = lib2.loadCacheFileDetailed(
        tempPath("does-not-exist.bin"));
    EXPECT_EQ(missing.status, Status::Unreadable);
}

TEST_F(ChaosTest, ServeStartupDegradesOnCorruptCatalog)
{
    using Status = decomp::EquivalenceLibrary::CacheLoadStatus;
    serve::EngineOptions eopts;
    eopts.catalogPath = writeCorruptCatalog("corrupt-serve.bin");
    serve::Engine engine(eopts);
    EXPECT_EQ(engine.catalogLoad().status, Status::Malformed)
        << "startup must record WHY the catalog was rejected";
    // ... and keep serving.
    json::Value doc = handleParsed(
        engine, requestLine(1, serve::syntheticQasm(0, 4, 6, 3)));
    EXPECT_TRUE(doc["ok"].asBool()) << doc.dump(0);
}

TEST_F(ChaosTest, CatalogStatsCliRejectsCorruptFile)
{
    const std::string corrupt = writeCorruptCatalog("corrupt-stats.bin");
    std::ostringstream out, err;
    EXPECT_EQ(cli::run({"catalog", "stats", "--path", corrupt}, out, err),
              cli::kExitFailure);
    EXPECT_NE(err.str().find("malformed"), std::string::npos) << err.str();

    // The committed catalog is the healthy baseline.
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::run({"catalog", "stats", "--path", kCatalogPath}, out2,
                       err2),
              cli::kExitSuccess);
}

TEST_F(ChaosTest, TranspileCliFitsColdOnCorruptCatalog)
{
    // A single CX on two qubits: the cold fallback costs only the
    // preseeded standard-gate fits.
    const std::string qasmPath = tempPath("tiny.qasm");
    {
        std::ofstream f(qasmPath);
        f << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
             "cx q[0],q[1];\n";
    }
    const std::string corrupt = writeCorruptCatalog("corrupt-cli.bin");
    std::ostringstream out, err;
    const int code =
        cli::run({"transpile", qasmPath, "--topology", "line2", "--lower",
                  "--trials", "1", "--swap-trials", "1", "--catalog",
                  corrupt},
                 out, err);
    EXPECT_EQ(code, cli::kExitSuccess)
        << "a corrupt catalog must warn and fit cold, not fail: "
        << err.str();
    EXPECT_NE(err.str().find("malformed"), std::string::npos) << err.str();
    EXPECT_NE(err.str().find("fitting cold"), std::string::npos)
        << err.str();
}

TEST_F(ChaosTest, SweepDegradesOnCorruptCatalog)
{
    // Two table3 --limit 1 runs sharing a cache dir: the first (valid
    // committed catalog) populates the equivalence cache, so the
    // second (corrupt catalog) falls back cold but finds every fit
    // warm -- the degrade path itself stays cheap to test.
    // Default knobs on purpose: they are the exact configuration the
    // committed catalog was built for, so the warm run performs zero
    // fits (the same invariant test_catalog_coldstart pins).
    const std::string cacheDir = tempPath("sweep-cache");
    const auto sweep = [&](const std::string &catalog, json::Value *doc) {
        std::ostringstream out, err;
        const int code = cli::run(
            {"sweep", "--experiment", "table3", "--limit", "1", "--cache",
             cacheDir, "--catalog", catalog, "--stdout"},
            out, err);
        if (code == cli::kExitSuccess)
            *doc = json::parse(out.str());
        return code;
    };

    json::Value warm;
    ASSERT_EQ(sweep(kCatalogPath, &warm), cli::kExitSuccess);
    EXPECT_TRUE(warm["summary"]["catalogLoaded"].asBool());

    json::Value degraded;
    ASSERT_EQ(sweep(writeCorruptCatalog("corrupt-sweep.bin"), &degraded),
              cli::kExitSuccess)
        << "sweep must degrade to a cold library, not fail";
    EXPECT_FALSE(degraded["summary"]["catalogLoaded"].asBool());
    ASSERT_NE(degraded["summary"].find("catalogError"), nullptr);
    EXPECT_FALSE(
        degraded["summary"]["catalogError"].asString().empty());
}

TEST_F(ChaosTest, SweepWarnsWhenCacheSaveFails)
{
    fault::arm("cache.save=1/1");
    std::ostringstream out, err;
    testing::internal::CaptureStderr();
    const int code = cli::run(
        {"sweep", "--experiment", "table3", "--limit", "1", "--cache",
         tempPath("sweep-unsaved"), "--catalog", kCatalogPath, "--stdout"},
        out, err);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, cli::kExitSuccess) << err.str();
    EXPECT_NE(log.find("cannot write cache"), std::string::npos)
        << "a failed save must be reported, not dropped: " << log;
}

// --- serve over a socket under an armed fault schedule ---------------------

TEST_F(ChaosTest, StatsOpPublishesInjectionCensusWhenArmed)
{
    fault::arm("seed=3,serve.read=1/2,queue.admit=0/5");
    serve::Engine engine;
    json::Value stats = handleParsed(engine, "{\"op\": \"stats\"}");
    const json::Value *faults = stats.find("faults");
    ASSERT_NE(faults, nullptr)
        << "an armed engine must disclose its schedule: " << stats.dump(0);
    EXPECT_EQ((*faults)["spec"].asString(),
              "seed=3,serve.read=1/2,queue.admit=0/5");

    fault::disarm();
    json::Value clean = handleParsed(engine, "{\"op\": \"stats\"}");
    EXPECT_EQ(clean.find("faults"), nullptr)
        << "a disarmed engine must not advertise fault machinery";
}

} // namespace
