/**
 * @file
 * Tests for the `mirage serve` persistent transpilation service: the
 * protocol layer (request validation, content cache keys), the
 * engine (memoization, single-flight coalescing, structured errors,
 * shutdown draining), concurrent-client bit-identity against one-shot
 * `mirage transpile` output, concurrent distinct misses on one pool,
 * the documented request example, the Unix-socket transport, and the
 * serve-bench artifact's deterministic --check gate. The concurrent
 * cases carry the `concurrency` ctest label so the TSan job exercises
 * the engine's locking.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/cli.hh"
#include "circuit/qasm.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"

using namespace mirage;

namespace {

/** A 3-qubit circuit whose CX triangle forces routing on grid-2x2. */
const char *const kQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[3];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "cx q[0],q[2];\n";

/** Build a transpile request line with the test's default options. */
std::string
requestLine(int id, const std::string &qasm = kQasm,
            const std::string &extraOptions = "")
{
    json::Value doc = json::Value::object();
    doc.set("id", id);
    doc.set("qasm", qasm);
    json::Value opts = json::parse(
        extraOptions.empty() ? "{\"trials\":2,\"swapTrials\":1}"
                             : extraOptions);
    doc.set("options", std::move(opts));
    return doc.dump(0);
}

json::Value
handleParsed(serve::Engine &engine, const std::string &line)
{
    return json::parse(engine.handle(line));
}

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

std::string
tempDir(const std::string &name)
{
    std::string dir = tempPath(name);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocol, ParseRequestRejectsUnknownFieldsAndBadRanges)
{
    auto parse = [](const std::string &text) {
        return serve::parseTranspileRequest(json::parse(text));
    };
    EXPECT_THROW(parse("{\"qasm\":\"x\",\"bogus\":1}"),
                 serve::RequestError);
    EXPECT_THROW(parse("{}"), serve::RequestError); // no qasm
    EXPECT_THROW(parse("{\"qasm\":1}"), serve::RequestError);

    // Each option case must fail with code "request" and a message that
    // names the key. Every request option has a case here (checked
    // below); CliTranspile.NumericFlagsOutOfRangeAreUsageErrors holds
    // the same for their flags.
    const struct
    {
        const char *options;
        const char *key;
    } cases[] = {
        {"{\"trials\":0}", "trials"},
        {"{\"swapTrials\":-1}", "swapTrials"},
        {"{\"aggression\":4}", "aggression"},
        {"{\"root\":1}", "root"},
        {"{\"root\":5}", "root"},
        {"{\"fwdBwd\":-1}", "fwdBwd"},
        {"{\"nope\":1}", "nope"},
        {"{\"flow\":\"sobre\"}", "flow"},
        {"{\"format\":\"xml\"}", "format"},
        {"{\"topology\":9}", "topology"},
        {"{\"lower\":\"yes\"}", "lower"},
        {"{\"vf2\":1}", "vf2"},
        {"{\"seed\":1.5}", "seed"},
        // Integers past an int (or, for the seed, past 2^53, the
        // largest a report reproduces exactly) used to be truncated
        // silently.
        {"{\"trials\":4294967297}", "trials"},
        {"{\"swapTrials\":2147483648}", "swapTrials"},
        {"{\"fwdBwd\":1e300}", "fwdBwd"},
        {"{\"root\":4294967298}", "root"},
        {"{\"aggression\":-1e300}", "aggression"},
        {"{\"seed\":-1}", "seed"},
        {"{\"seed\":1152921504606846976}", "seed"},
        {"{\"seed\":1e300}", "seed"},
        // A deadline past the CLI's 2^31-1 ms overflowed the clock.
        {"{\"deadlineMs\":1e300}", "deadlineMs"},
        {"{\"deadlineMs\":2147483648}", "deadlineMs"},
        {"{\"deadlineMs\":0}", "deadlineMs"},
    };
    std::set<std::string> covered;
    for (const auto &c : cases) {
        try {
            parse(std::string("{\"qasm\":\"x\",\"options\":") +
                  c.options + "}");
            ADD_FAILURE() << "accepted " << c.options;
        } catch (const serve::RequestError &e) {
            EXPECT_EQ(e.code(), "request") << c.options;
            EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
                << e.what();
        }
        covered.insert(c.key);
    }
    for (const serve::RequestOption &row : serve::requestOptions())
        EXPECT_TRUE(covered.count(row.key)) << row.key;

    EXPECT_EQ(parse("{\"qasm\":\"x\",\"options\":{\"seed\":"
                    "9007199254740992}}")
                  .options.seed,
              uint64_t(1) << 53);
    EXPECT_EQ(parse("{\"qasm\":\"x\",\"options\":{\"deadlineMs\":"
                    "2147483647}}")
                  .deadlineMs,
              2147483647.0);

    serve::TranspileRequest req = parse(
        "{\"id\":7,\"qasm\":\"x\",\"options\":{\"trials\":3,"
        "\"topology\":\"line4\",\"format\":\"qasm\",\"seed\":11}}");
    EXPECT_EQ(req.id.asInt(), 7);
    EXPECT_EQ(req.options.layoutTrials, 3);
    EXPECT_EQ(req.topology, "line4");
    EXPECT_EQ(req.format, "qasm");
    EXPECT_EQ(req.options.seed, 11u);
}

TEST(ServeProtocol, FlagAndKeyOfEachOptionSetTheSameField)
{
    // One in-range value per row, as `mirage transpile` flag text and
    // as a JSON value; each must move its field off the default.
    const std::map<std::string, std::pair<std::string, std::string>>
        samples = {
            {"topology", {"line4", "\"line4\""}},
            {"format", {"qasm", "\"qasm\""}},
            {"flow", {"sabre", "\"sabre\""}},
            {"trials", {"3", "3"}},
            {"swapTrials", {"2", "2"}},
            {"fwdBwd", {"0", "0"}},
            {"seed", {"010", "10"}},
            {"aggression", {"2", "2"}},
            {"root", {"3", "3"}},
            {"lower", {"", "true"}},
            {"vf2", {"", "false"}},
            {"deadlineMs", {"500", "500"}},
        };
    const serve::TranspileRequest defaults;
    for (const serve::RequestOption &row : serve::requestOptions()) {
        auto it = samples.find(row.key);
        ASSERT_NE(it, samples.end()) << "no sample for " << row.key;
        serve::TranspileRequest fromFlag;
        serve::applyFlag(fromFlag, row, it->second.first);
        const serve::TranspileRequest fromKey =
            serve::parseTranspileRequest(json::parse(
                std::string("{\"qasm\":\"x\",\"options\":{\"") +
                row.key + "\":" + it->second.second + "}}"));
        EXPECT_EQ(serve::optionValue(fromFlag, row).dump(0), serve::optionValue(fromKey, row).dump(0))
            << row.flag << " vs " << row.key;
        EXPECT_NE(serve::optionValue(fromKey, row).dump(0), serve::optionValue(defaults, row).dump(0))
            << row.key;
    }
    // The named rows are the rows they name.
    EXPECT_STREQ(serve::requestOption(serve::Option::SwapTrials).flag,
                 "--swap-trials");
    EXPECT_STREQ(serve::requestOption(serve::Option::FwdBwd).key, "fwdBwd");
    EXPECT_STREQ(serve::requestOption(serve::Option::DeadlineMs).key,
                 "deadlineMs");
}

TEST(ServeProtocol, CacheKeySeparatesCircuitsAndParams)
{
    mirage_pass::TranspileOptions o;
    auto key = [&o](const circuit::Circuit &c) {
        return serve::resultCacheKey(c, "grid-2x2", o, "json");
    };
    circuit::Circuit a = circuit::fromQasm(kQasm);
    circuit::Circuit b = circuit::fromQasm(kQasm);
    EXPECT_EQ(key(a), key(b));

    circuit::Circuit c = circuit::fromQasm(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[1],q[0];\n");
    EXPECT_NE(key(a), key(c));

    circuit::Circuit d = circuit::fromQasm(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
        "rz(0.5) q[0];\n");
    circuit::Circuit e = circuit::fromQasm(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
        "rz(0.25) q[0];\n");
    EXPECT_NE(key(d), key(e));

    // Explicit matrices and the mirror flag are content too.
    circuit::Circuit f(2, "f"), g(2, "g");
    linalg::Mat4 m = linalg::Mat4::identity();
    f.append(circuit::makeUnitary2(0, 1, m));
    m(3, 3) = linalg::Complex(-1);
    g.append(circuit::makeUnitary2(0, 1, m));
    EXPECT_NE(key(f), key(g));
    circuit::Gate mirrored = circuit::makeUnitary2(0, 1, m);
    mirrored.mirrored = true;
    circuit::Circuit h(2, "h");
    h.append(mirrored);
    EXPECT_NE(key(g), key(h));
}

TEST(ServeProtocol, CacheKeyIgnoresThreadsButNotSeed)
{
    const circuit::Circuit c = circuit::fromQasm(kQasm);
    mirage_pass::TranspileOptions a, b;
    a.threads = 1;
    b.threads = 8;
    EXPECT_EQ(serve::resultCacheKey(c, "grid-2x2", a, "json"),
              serve::resultCacheKey(c, "grid-2x2", b, "json"));
    b.seed = a.seed + 1;
    EXPECT_NE(serve::resultCacheKey(c, "grid-2x2", a, "json"),
              serve::resultCacheKey(c, "grid-2x2", b, "json"));
    EXPECT_NE(serve::resultCacheKey(c, "grid-2x2", a, "json"),
              serve::resultCacheKey(c, "grid-2x2", a, "qasm"));
    EXPECT_NE(serve::resultCacheKey(c, "grid-2x2", a, "json"),
              serve::resultCacheKey(c, "line4", a, "json"));
}

// --- engine: memoization ----------------------------------------------------

TEST(ServeEngine, RepeatRequestHitsTheMemoWithObservableCounters)
{
    serve::Engine engine;
    json::Value first = handleParsed(engine, requestLine(1));
    ASSERT_TRUE(first["ok"].asBool()) << engine.handle(requestLine(1));
    EXPECT_FALSE(first["cache"]["hit"].asBool());
    EXPECT_EQ(first["cache"]["misses"].asInt(), 1);
    EXPECT_EQ(first["cache"]["hits"].asInt(), 0);

    json::Value second = handleParsed(engine, requestLine(2));
    ASSERT_TRUE(second["ok"].asBool());
    EXPECT_TRUE(second["cache"]["hit"].asBool());
    EXPECT_EQ(second["cache"]["hits"].asInt(), 1);
    EXPECT_EQ(second["cache"]["misses"].asInt(), 1);

    // Identical report, modulo the echoed id.
    EXPECT_EQ(first["report"].dump(0), second["report"].dump(0));

    // A different seed is a different key: miss again.
    json::Value third = handleParsed(
        engine, requestLine(3, kQasm,
                            "{\"trials\":2,\"swapTrials\":1,\"seed\":9}"));
    ASSERT_TRUE(third["ok"].asBool());
    EXPECT_FALSE(third["cache"]["hit"].asBool());

    serve::EngineCounters c = engine.counters();
    EXPECT_EQ(c.requests, 3u);
    EXPECT_EQ(c.transpiles, 2u);
    EXPECT_EQ(c.cacheHits, 1u);
    EXPECT_EQ(c.cacheMisses, 2u);
    EXPECT_EQ(c.errors, 0u);
}

TEST(ServeEngine, MemoEvictsTheLeastRecentlyUsedEntry)
{
    serve::EngineOptions opts;
    opts.cacheEntries = 2;
    serve::Engine engine(opts);
    auto hit = [&engine](int seed) {
        json::Value resp = handleParsed(
            engine, requestLine(seed, kQasm,
                                "{\"trials\":2,\"swapTrials\":1,\"seed\":" +
                                    std::to_string(seed) + "}"));
        EXPECT_TRUE(resp["ok"].asBool());
        return resp["cache"]["hit"].asBool();
    };
    EXPECT_FALSE(hit(1));
    EXPECT_FALSE(hit(2));
    EXPECT_TRUE(hit(1)); // refreshes 1, so 2 is now the oldest
    EXPECT_FALSE(hit(3)); // evicts 2
    EXPECT_TRUE(hit(1));
    EXPECT_TRUE(hit(3));
    EXPECT_FALSE(hit(2));
    EXPECT_EQ(engine.counters().transpiles, 4u);
}

TEST(ServeEngine, MemoHitAnswersWithItsOwnRequestName)
{
    // Regression: the memoized report carried the first requester's
    // name, so a hit leaked one client's label to another.
    serve::Engine engine;
    auto named = [](int id, const char *name) {
        json::Value doc = json::parse(requestLine(id));
        doc.set("name", name);
        return doc.dump(0);
    };
    json::Value alpha = handleParsed(engine, named(1, "alpha"));
    ASSERT_TRUE(alpha["ok"].asBool());
    EXPECT_FALSE(alpha["cache"]["hit"].asBool());
    EXPECT_EQ(alpha["report"]["input"]["file"].asString(), "alpha");

    json::Value beta = handleParsed(engine, named(2, "beta"));
    ASSERT_TRUE(beta["ok"].asBool());
    // The name is not part of the key: still a hit...
    EXPECT_TRUE(beta["cache"]["hit"].asBool());
    EXPECT_EQ(engine.counters().transpiles, 1u);
    // ...answered with its own name, and otherwise the same report.
    EXPECT_EQ(beta["report"]["input"]["file"].asString(), "beta");
    json::Value relabeled = json::parse(beta["report"].dump(0));
    json::Value in = relabeled["input"];
    in.set("file", "alpha");
    relabeled.set("input", std::move(in));
    EXPECT_EQ(relabeled.dump(0), alpha["report"].dump(0));
}

TEST(ServeEngine, QasmFormatReturnsCircuitText)
{
    serve::Engine engine;
    json::Value resp = handleParsed(
        engine,
        requestLine(1, kQasm,
                    "{\"trials\":2,\"swapTrials\":1,\"format\":\"qasm\"}"));
    ASSERT_TRUE(resp["ok"].asBool());
    const std::string qasm = resp["qasm"].asString();
    EXPECT_NE(qasm.find("OPENQASM 2.0"), std::string::npos);
    // The emitted text must parse back.
    circuit::Circuit routed = circuit::fromQasm(qasm);
    EXPECT_GE(routed.numQubits(), 3);
}

TEST(ServeEngine, DocumentedRequestExampleAnswersOk)
{
    // Verbatim from docs/CLI.md "mirage serve" > Protocol; a drift in
    // either place breaks this test.
    const char *const documented = R"({"op": "transpile", "id": 7,
 "qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n",
 "options": {"topology": "grid3x3", "format": "json", "deadlineMs": 60000,
             "flow": "mirage", "trials": 8, "swapTrials": 4,
             "fwdBwd": 2, "seed": 20240229, "aggression": -1,
             "root": 2, "vf2": true, "lower": false}})";
    serve::Engine engine;
    json::Value before = handleParsed(engine, "{\"op\":\"stats\"}");
    EXPECT_EQ(before["counters"]["maxBatchSize"].asInt(), 0);

    json::Value resp = handleParsed(engine, documented);
    ASSERT_TRUE(resp["ok"].asBool()) << resp.dump(0);
    EXPECT_EQ(resp["id"].asInt(), 7);
    EXPECT_EQ(resp["kind"].asString(), "transpile");
    EXPECT_TRUE(resp.contains("report"));

    // The batch fields stay for protocol compatibility: every
    // transpile is a batch of one.
    json::Value after = handleParsed(engine, "{\"op\":\"stats\"}");
    const json::Value &c = after["counters"];
    EXPECT_EQ(c["transpiles"].asInt(), 1);
    EXPECT_EQ(c["batches"].asInt(), 1);
    EXPECT_EQ(c["batchedRequests"].asInt(), 1);
    EXPECT_EQ(c["maxBatchSize"].asInt(), 1);
}

// --- engine: structured errors ----------------------------------------------

TEST(ServeEngine, MalformedRequestsGetStructuredErrorsNotCrashes)
{
    serve::Engine engine;

    json::Value bad = handleParsed(engine, "{\"op\": nope}");
    EXPECT_FALSE(bad["ok"].asBool());
    EXPECT_EQ(bad["error"]["code"].asString(), "parse");

    json::Value badOp = handleParsed(engine, "{\"op\":\"launch\"}");
    EXPECT_FALSE(badOp["ok"].asBool());
    EXPECT_EQ(badOp["error"]["code"].asString(), "request");

    json::Value badField =
        handleParsed(engine, "{\"id\":4,\"qasm\":\"x\",\"bogus\":true}");
    EXPECT_FALSE(badField["ok"].asBool());
    EXPECT_EQ(badField["error"]["code"].asString(), "request");
    EXPECT_EQ(badField["id"].asInt(), 4); // id echoed even on failure

    json::Value badQasm = handleParsed(
        engine, requestLine(5, "OPENQASM 2.0;\nqreg q[2];\nfrobnicate;"));
    EXPECT_FALSE(badQasm["ok"].asBool());
    EXPECT_EQ(badQasm["error"]["code"].asString(), "qasm");

    json::Value badTopo = handleParsed(
        engine,
        requestLine(6, kQasm,
                    "{\"trials\":1,\"swapTrials\":1,"
                    "\"topology\":\"line2\"}"));
    EXPECT_FALSE(badTopo["ok"].asBool());
    EXPECT_EQ(badTopo["error"]["code"].asString(), "input");

    // The engine is still healthy after the error burst.
    json::Value good = handleParsed(engine, requestLine(7));
    EXPECT_TRUE(good["ok"].asBool());
    EXPECT_EQ(engine.counters().errors, 5u);
}

TEST(ServeEngine, InvalidGatesAreQasmErrorsAndTheServerKeepsAnswering)
{
    // Each of these once killed the server process (SIGSEGV from a
    // repeated operand, SIGABRT from a NaN angle reaching lowering).
    serve::Engine engine;
    const char *const header = "OPENQASM 2.0;\nqreg q[2];\n";
    for (const std::string body : {"cx q[0],q[0];\n", "rz(0/0) q[0];\n"}) {
        SCOPED_TRACE(body);
        json::Value resp = handleParsed(
            engine, requestLine(1, header + body,
                                "{\"trials\":1,\"swapTrials\":1,"
                                "\"lower\":true}"));
        EXPECT_FALSE(resp["ok"].asBool());
        EXPECT_EQ(resp["error"]["code"].asString(), "qasm");
        EXPECT_NE(resp["error"]["message"].asString().find("qasm:3:1: "),
                  std::string::npos)
            << resp.dump(0);
    }
    // Register sizes summing past INT_MAX once aborted the process on a
    // negative qubit count; the second register's size is refused.
    json::Value overflow = handleParsed(
        engine, requestLine(1,
                            "OPENQASM 2.0;\nqreg a[2147483647];\n"
                            "qreg b[2];\nh b[0];\n"));
    EXPECT_FALSE(overflow["ok"].asBool());
    EXPECT_EQ(overflow["error"]["code"].asString(), "qasm");
    EXPECT_NE(overflow["error"]["message"].asString().find("qasm:3:8: "),
              std::string::npos)
        << overflow.dump(0);

    json::Value pong = handleParsed(engine, "{\"op\":\"ping\"}");
    EXPECT_TRUE(pong["ok"].asBool()) << pong.dump(0);
    EXPECT_TRUE(handleParsed(engine, requestLine(2))["ok"].asBool());
}

TEST(ServeEngine, OversizedTopologySpecsAreRequestErrors)
{
    // Each of these once tried to allocate tens of GB (and overflowed
    // int or std::atoi on the way) before answering "internal"; the
    // last, a 2^31-1-qubit circuit under the default "auto" topology,
    // once spun forever resolving its grid. Each request runs on its own
    // thread and must answer within a bounded wait, so a hang fails the
    // test instead of stalling it (the stuck thread and its engine are
    // then leaked, never joined).
    auto engine = std::make_unique<serve::Engine>();
    auto answerWithin = [&engine](const std::string &line) {
        auto answer = std::make_shared<std::promise<std::string>>();
        std::future<std::string> done = answer->get_future();
        std::thread worker([e = engine.get(), answer, line] {
            answer->set_value(e->handle(line));
        });
        if (done.wait_for(std::chrono::seconds(10)) !=
            std::future_status::ready) {
            worker.detach();
            (void)engine.release();
            return json::Value();
        }
        worker.join();
        return json::parse(done.get());
    };
    const std::string hugeAuto =
        "OPENQASM 2.0;\nqreg q[2147483647];\nh q[0];\n";
    const std::string trial = "{\"trials\":1,\"swapTrials\":1";
    for (const std::string &line :
         {requestLine(1, kQasm, trial + ",\"topology\":\"alltoall100000\"}"),
          requestLine(1, kQasm,
                      trial + ",\"topology\":\"grid70000x70000\"}"),
          requestLine(1, kQasm,
                      trial + ",\"topology\":\"line99999999999\"}"),
          requestLine(1, hugeAuto, trial + "}")}) {
        SCOPED_TRACE(line);
        json::Value resp = answerWithin(line);
        ASSERT_TRUE(resp.isObject()) << "no answer within 10 s";
        EXPECT_FALSE(resp["ok"].asBool());
        EXPECT_EQ(resp["error"]["code"].asString(), "request")
            << resp.dump(0);
    }
    EXPECT_TRUE(answerWithin(requestLine(2))["ok"].asBool());
}

TEST(ServeEngine, TopologyCacheHoldsAtMostItsBound)
{
    // Every distinct spec once stayed parsed for the engine's lifetime,
    // so a client cycling through device sizes grew the server without
    // bound. The stats op reports how many topologies are held.
    serve::Engine engine;
    const int specs = int(serve::Engine::kTopologyCacheEntries) + 16;
    for (int n = 3; n < 3 + specs; ++n) {
        json::Value resp = handleParsed(
            engine,
            requestLine(n, kQasm,
                        "{\"trials\":1,\"swapTrials\":1,\"topology\":"
                        "\"line" +
                            std::to_string(n) + "\"}"));
        ASSERT_TRUE(resp["ok"].asBool()) << resp.dump(0);
    }
    json::Value stats = handleParsed(engine, "{\"op\":\"stats\"}");
    ASSERT_TRUE(stats["cache"]["topologies"].isNumber()) << stats.dump(0);
    EXPECT_EQ(stats["cache"]["topologies"].asInt(),
              int64_t(serve::Engine::kTopologyCacheEntries));
}

// --- engine: shutdown -------------------------------------------------------

TEST(ServeEngine, ShutdownRejectsNewWorkButStatsKeepAnswering)
{
    serve::Engine engine;
    ASSERT_TRUE(handleParsed(engine, requestLine(1))["ok"].asBool());

    json::Value bye = handleParsed(engine, "{\"op\":\"shutdown\"}");
    EXPECT_TRUE(bye["ok"].asBool());
    EXPECT_TRUE(engine.shuttingDown());

    json::Value rejected = handleParsed(engine, requestLine(2));
    EXPECT_FALSE(rejected["ok"].asBool());
    EXPECT_EQ(rejected["error"]["code"].asString(), "shutdown");

    json::Value stats = handleParsed(engine, "{\"op\":\"stats\"}");
    EXPECT_TRUE(stats["ok"].asBool());
    EXPECT_TRUE(stats["shuttingDown"].asBool());
}

TEST(ServeEngine, StdioTransportStopsAfterShutdownRequest)
{
    serve::Engine engine;
    std::istringstream in(requestLine(1) + "\n{\"op\":\"shutdown\"}\n" +
                          requestLine(2) + "\n");
    std::ostringstream out;
    const uint64_t handled = serve::serveStdio(engine, in, out);
    // The line after shutdown is never read.
    EXPECT_EQ(handled, 2u);
    EXPECT_NE(out.str().find("\"draining\":true"), std::string::npos);
}

TEST(ServeEngine, StdioTransportRejectsAnOverCapLineAndStops)
{
    serve::Engine engine;
    std::istringstream in(requestLine(1) + "\n" +
                          std::string(serve::kMaxRequestLineBytes + 1, 'x') +
                          "\n" + requestLine(2) + "\n");
    std::ostringstream out;
    const uint64_t handled = serve::serveStdio(engine, in, out);
    // The line after the over-cap one is never read.
    EXPECT_EQ(handled, 2u);
    std::istringstream lines(out.str());
    std::string first, second;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    EXPECT_TRUE(json::parse(first)["ok"].asBool());
    json::Value rejected = json::parse(second);
    EXPECT_FALSE(rejected["ok"].asBool());
    EXPECT_EQ(rejected["error"]["code"].asString(), "request");
    EXPECT_NE(rejected["error"]["message"].asString().find("exceeds"),
              std::string::npos);
    EXPECT_EQ(engine.counters().errors, 1u);
    // A line of exactly the cap is read whole (a parse error, not a
    // "request" one).
    std::istringstream at_cap(std::string(serve::kMaxRequestLineBytes, 'x'));
    std::ostringstream at_cap_out;
    EXPECT_EQ(serve::serveStdio(engine, at_cap, at_cap_out), 1u);
    EXPECT_NE(at_cap_out.str().find("\"code\":\"parse\""),
              std::string::npos);
}

// --- engine: concurrency ----------------------------------------------------

TEST(ServeEngine, ConcurrentClientsAreBitIdenticalToOneShotTranspile)
{
    // One-shot ground truth through the real CLI path (same default
    // options as requestLine: trials=2, swapTrials=1).
    const std::string qasmPath = tempPath("serve_ident.qasm");
    {
        std::ofstream f(qasmPath);
        ASSERT_TRUE(f.is_open());
        f << kQasm;
    }
    std::ostringstream cliOut, cliErr;
    int code = cli::run({"transpile", qasmPath, "--trials", "2",
                         "--swap-trials", "1"},
                        cliOut, cliErr);
    ASSERT_EQ(code, 0) << cliErr.str();
    json::Value oneShot = json::parse(cliOut.str());

    serve::Engine engine;
    constexpr int kClients = 8;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&engine, &responses, i] {
            responses[i] = engine.handle(requestLine(i));
        });
    for (auto &t : clients)
        t.join();

    int okCount = 0;
    for (int i = 0; i < kClients; ++i) {
        json::Value resp = json::parse(responses[i]);
        ASSERT_TRUE(resp["ok"].asBool()) << responses[i];
        ++okCount;
        json::Value report = resp["report"];
        // The serve report labels the input "<request>"; align it with
        // the one-shot's file label, then demand byte equality.
        json::Value in = report["input"];
        in.set("file", qasmPath);
        report.set("input", std::move(in));
        EXPECT_EQ(report.dump(2), oneShot.dump(2)) << "client " << i;
    }
    EXPECT_EQ(okCount, kClients);

    // Every client observed the same key: exactly one compute, and
    // hits + coalesced + misses account for all of them.
    serve::EngineCounters c = engine.counters();
    EXPECT_EQ(c.transpiles, 1u);
    EXPECT_EQ(c.cacheMisses, 1u);
    EXPECT_EQ(c.cacheHits + c.coalesced + c.cacheMisses,
              uint64_t(kClients));
}

TEST(ServeEngine, DefaultOptionsMatchOneShotTranspile)
{
    // A request that sets only its topology gets the CLI's defaults:
    // serve once routed it with 4 layout trials where `mirage
    // transpile` uses 8.
    const std::string qasmPath = tempPath("serve_defaults.qasm");
    {
        std::ofstream f(qasmPath);
        ASSERT_TRUE(f.is_open());
        f << kQasm;
    }
    std::ostringstream cliOut, cliErr;
    ASSERT_EQ(cli::run({"transpile", qasmPath, "--topology", "grid2x2"},
                       cliOut, cliErr),
              0)
        << cliErr.str();

    json::Value doc = json::Value::object();
    doc.set("qasm", kQasm);
    doc.set("name", qasmPath);
    json::Value opts = json::Value::object();
    opts.set("topology", "grid2x2");
    doc.set("options", std::move(opts));
    serve::Engine engine;
    json::Value resp = handleParsed(engine, doc.dump(0));
    ASSERT_TRUE(resp["ok"].asBool()) << resp.dump(0);
    EXPECT_EQ(resp["report"].dump(2), cliOut.str());
}

TEST(ServeEngine, MixedConcurrentRequestsEachComputeOnce)
{
    serve::Engine engine;
    constexpr int kDistinct = 3;
    constexpr int kRepeats = 4;
    std::vector<std::string> bodies;
    for (int d = 0; d < kDistinct; ++d) {
        std::string qasm = kQasm;
        // Vary the circuit by appending d extra H gates on q[0].
        for (int i = 0; i < d; ++i)
            qasm += "h q[0];\n";
        bodies.push_back(qasm);
    }
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (int r = 0; r < kRepeats; ++r)
        for (int d = 0; d < kDistinct; ++d)
            clients.emplace_back([&engine, &bodies, &failures, r, d] {
                json::Value resp = json::parse(engine.handle(
                    requestLine(r * kDistinct + d, bodies[d])));
                if (!resp["ok"].asBool())
                    ++failures;
            });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    serve::EngineCounters c = engine.counters();
    EXPECT_EQ(c.cacheMisses, uint64_t(kDistinct));
    EXPECT_EQ(c.transpiles, uint64_t(kDistinct));
    EXPECT_EQ(c.cacheHits + c.coalesced,
              uint64_t(kDistinct * (kRepeats - 1)));
}

TEST(ServeEngine, WaiterComputesWhenOwnerFails)
{
    // B coalesces onto A's miss; A's first fit fails. B must not be
    // answered with A's error: it computes for itself and answers as a
    // fault-free engine would.
    std::string qasm = "OPENQASM 2.0;\nqreg q[16];\n";
    uint64_t state = 1;
    for (int i = 0; i < 200; ++i) {
        // CX-only, so routing dominates and lowering needs only a
        // couple of fits beyond the preseeded rules.
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int a = int((state >> 33) % 16);
        const int b = (a + 1 + int((state >> 13) % 15)) % 16;
        qasm += "cx q[" + std::to_string(a) + "],q[" + std::to_string(b) +
                "];\n";
    }
    // One thread and 32 layout trials keep A routing for >= 100 ms, so
    // B reliably arrives while A is in flight.
    const std::string options =
        "{\"trials\":32,\"swapTrials\":1,\"lower\":true}";
    serve::EngineOptions eopts;
    eopts.threads = 1;
    eopts.catalogPath = "none";

    json::Value expected;
    {
        serve::Engine fresh(eopts);
        expected = handleParsed(fresh, requestLine(3, qasm, options));
        ASSERT_TRUE(expected["ok"].asBool()) << expected.dump(0);
    }

    serve::Engine engine(eopts);
    // Build the preseeded root-2 library first, so the one-shot fault
    // fires at A's first fit, after its routing.
    ASSERT_TRUE(handleParsed(engine,
                             requestLine(1, "OPENQASM 2.0;\nqreg q[1];\n"
                                            "h q[0];\n",
                                         "{\"lower\":true}"))["ok"]
                    .asBool());
    const uint64_t missesBefore = engine.counters().cacheMisses;
    fault::arm("seed=1,fit.converge=#1");
    json::Value a;
    std::thread owner(
        [&] { a = handleParsed(engine, requestLine(2, qasm, options)); });
    while (engine.counters().cacheMisses == missesBefore)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    json::Value b = handleParsed(engine, requestLine(3, qasm, options));
    owner.join();
    fault::disarm();

    EXPECT_FALSE(a["ok"].asBool()) << a.dump(0);
    EXPECT_EQ(a["error"]["code"].asString(), "fault") << a.dump(0);
    ASSERT_TRUE(b["ok"].asBool()) << b.dump(0);
    EXPECT_EQ(b["report"].dump(0), expected["report"].dump(0));
    const serve::EngineCounters c = engine.counters();
    EXPECT_EQ(c.coalesced, 1u);
    EXPECT_EQ(c.cacheMisses, missesBefore + 2);
    EXPECT_EQ(c.transpiles, 2u);
}

TEST(ServeEngine, ConcurrentDistinctMissesMatchSequentialAnswers)
{
    // Each miss computes on its caller's thread, so distinct misses run
    // side by side on the one pool (and, for the lowered half, through
    // the one root-2 library). Each answer must equal the one a fresh
    // engine gives the same line on its own.
    constexpr int kDistinct = 6;
    std::vector<std::string> lines;
    for (int d = 0; d < kDistinct; ++d)
        lines.push_back(requestLine(
            d, serve::syntheticQasm(d, 5, 16, 7),
            d % 2 ? "{\"trials\":2,\"swapTrials\":1,\"lower\":true,"
                    "\"format\":\"qasm\"}"
                  : "{\"trials\":2,\"swapTrials\":1}"));
    auto withoutCache = [](const std::string &response) {
        json::Value v = json::parse(response);
        EXPECT_TRUE(v["ok"].asBool()) << response;
        json::Value out = json::Value::object();
        for (const auto &[key, value] : v.members())
            if (key != "cache")
                out.set(key, value);
        return out.dump(0);
    };

    serve::EngineOptions eopts;
    eopts.threads = 4;
    std::vector<std::string> sequential;
    {
        serve::Engine fresh(eopts);
        for (const std::string &line : lines)
            sequential.push_back(withoutCache(fresh.handle(line)));
    }

    serve::Engine engine(eopts);
    std::vector<std::string> responses(kDistinct);
    std::vector<std::thread> clients;
    for (int d = 0; d < kDistinct; ++d)
        clients.emplace_back([&engine, &lines, &responses, d] {
            responses[size_t(d)] = engine.handle(lines[size_t(d)]);
        });
    for (auto &t : clients)
        t.join();

    for (int d = 0; d < kDistinct; ++d)
        EXPECT_EQ(withoutCache(responses[size_t(d)]), sequential[size_t(d)])
            << "circuit " << d;
    EXPECT_EQ(engine.counters().transpiles, uint64_t(kDistinct));
}

// --- socket transport -------------------------------------------------------

TEST(ServeSocket, EightConcurrentClientsOverTheSocket)
{
    const std::string path = tempPath("mirage_serve_test.sock");
    std::filesystem::remove(path);

    serve::Engine engine;
    serve::SocketServer server(engine, path);
    server.start();
    std::thread serverThread([&server] { server.run(); });

    constexpr int kClients = 8;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&path, &responses, i] {
            serve::SocketClient client(path);
            responses[i] = client.roundTrip(requestLine(i));
        });
    for (auto &t : clients)
        t.join();

    std::string firstReport;
    for (int i = 0; i < kClients; ++i) {
        json::Value resp = json::parse(responses[i]);
        ASSERT_TRUE(resp["ok"].asBool()) << responses[i];
        EXPECT_EQ(resp["id"].asInt(), i);
        const std::string report = resp["report"].dump(0);
        if (firstReport.empty())
            firstReport = report;
        else
            EXPECT_EQ(report, firstReport) << "client " << i;
    }

    // A shutdown request drains the server; run() returns and the
    // socket file is gone.
    serve::SocketClient closer(path);
    json::Value bye =
        json::parse(closer.roundTrip("{\"op\":\"shutdown\"}"));
    EXPECT_TRUE(bye["ok"].asBool());
    serverThread.join();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeSocket, OverCapLineGetsARequestErrorAndClosesTheConnection)
{
    const std::string path = tempPath("mirage_serve_cap.sock");
    std::filesystem::remove(path);

    serve::Engine engine;
    serve::SocketServer server(engine, path);
    server.start();
    std::thread serverThread([&server] { server.run(); });

    serve::SocketClient client(path);
    json::Value rejected = json::parse(
        client.roundTrip(std::string(serve::kMaxRequestLineBytes + 1, 'x')));
    EXPECT_FALSE(rejected["ok"].asBool());
    EXPECT_EQ(rejected["error"]["code"].asString(), "request");
    // The server closed this connection instead of reading on.
    EXPECT_THROW(client.roundTrip(requestLine(2)), serve::ServeError);

    // Other clients are still served.
    serve::SocketClient next(path);
    EXPECT_TRUE(json::parse(next.roundTrip(requestLine(3)))["ok"].asBool());

    server.stop();
    serverThread.join();
}

TEST(ServeSocket, SecondServerRefusesALivePath)
{
    const std::string path = tempPath("mirage_serve_live.sock");
    std::filesystem::remove(path);

    serve::Engine engine;
    serve::SocketServer server(engine, path);
    server.start();
    std::thread serverThread([&server] { server.run(); });

    serve::Engine other;
    serve::SocketServer dup(other, path);
    EXPECT_THROW(dup.start(), serve::ServeError);

    server.stop();
    serverThread.join();
}

// --- library persistence ----------------------------------------------------

TEST(ServeEngine, EquivalenceLibraryPersistsAcrossEngines)
{
    const std::string dir = tempDir("serve_eqlib_cache/");
    const std::string line = requestLine(
        1, kQasm, "{\"trials\":1,\"swapTrials\":1,\"lower\":true}");
    {
        serve::EngineOptions opts;
        opts.cacheDir = dir;
        serve::Engine engine(opts);
        json::Value resp = handleParsed(engine, line);
        ASSERT_TRUE(resp["ok"].asBool()) << engine.handle(line);
        EXPECT_TRUE(resp["report"].contains("lowered"));
    } // destructor saves the library
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/eqlib-root2.cache"));

    serve::EngineOptions opts;
    opts.cacheDir = dir;
    serve::Engine warm(opts);
    json::Value resp = handleParsed(warm, line);
    ASSERT_TRUE(resp["ok"].asBool());
    // A warm library serves every block from its decomposition cache.
    EXPECT_EQ(resp["report"]["lowered"]["newFits"].asInt(), 0);
}

TEST(ServeEngine, OtherRootPersistsBesideTheCatalog)
{
    const std::string dir = tempDir("serve_root3_cache/");
    {
        serve::EngineOptions opts;
        opts.cacheDir = dir;
        opts.catalogPath = MIRAGE_TEST_DATA_DIR "/../FIT_CATALOG.bin";
        serve::Engine engine(opts);
        json::Value resp = handleParsed(
            engine,
            requestLine(1, kQasm,
                        "{\"trials\":1,\"swapTrials\":1,\"lower\":true,"
                        "\"root\":3}"));
        ASSERT_TRUE(resp["ok"].asBool()) << resp.dump(0);
        json::Value stats = handleParsed(engine, "{\"op\":\"stats\"}");
        EXPECT_EQ(stats["catalog"]["status"].asString(), "ok");
    } // destructor saves every library
    EXPECT_TRUE(std::filesystem::exists(dir + "/eqlib-root3.cache"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/eqlib-root2.cache"));
}

// --- serve-bench ------------------------------------------------------------

TEST(ServeBench, ArtifactCountersAreExactAndCheckGates)
{
    std::ostringstream log;
    json::Value first = serve::runTraffic("", log);
    EXPECT_EQ(first["kind"].asString(), serve::kServeBenchKind);
    const json::Value &counters = first["counters"];
    EXPECT_EQ(counters["requests"].asInt(), 4 + 8 * 6);
    EXPECT_EQ(counters["warmupMisses"].asInt(), 4);
    EXPECT_EQ(counters["driveHits"].asInt(), 8 * 6);
    EXPECT_EQ(counters["errors"].asInt(), 0);
    EXPECT_TRUE(counters["bitIdentical"].asBool());

    // The fixed workload reproduces the committed baseline exactly, so
    // serve counter drift fails here as well as in CI's serve-smoke.
    std::ifstream in(MIRAGE_TEST_DATA_DIR "/../BENCH_serve.json");
    ASSERT_TRUE(in) << "BENCH_serve.json not found";
    std::stringstream text;
    text << in.rdbuf();
    const json::Value committed = json::parse(text.str());
    std::string report;
    EXPECT_TRUE(serve::checkServeArtifact(first, committed, &report))
        << report;

    // Any counter drift fails the gate and is named in the report.
    json::Value doctored = first;
    json::Value badCounters = doctored["counters"];
    badCounters.set("heuristicEvals",
                    badCounters["heuristicEvals"].asInt() + 1);
    doctored.set("counters", std::move(badCounters));
    report.clear();
    EXPECT_FALSE(serve::checkServeArtifact(first, doctored, &report));
    EXPECT_NE(report.find("heuristicEvals"), std::string::npos);

    // Parameter drift (a different workload) also fails.
    json::Value otherParams = first;
    json::Value p = otherParams["parameters"];
    p.set("clients", 99);
    otherParams.set("parameters", std::move(p));
    EXPECT_FALSE(serve::checkServeArtifact(first, otherParams, &report));
}

TEST(ServeBench, SyntheticQasmIsDeterministicAndDistinctPerIndex)
{
    const std::string a = serve::syntheticQasm(0, 4, 6, 1);
    EXPECT_EQ(a, serve::syntheticQasm(0, 4, 6, 1));
    EXPECT_NE(a, serve::syntheticQasm(1, 4, 6, 1));
    EXPECT_NE(a, serve::syntheticQasm(0, 4, 6, 2));
    circuit::Circuit c = circuit::fromQasm(a);
    EXPECT_EQ(c.numQubits(), 4);
    EXPECT_EQ(c.twoQubitGateCount(), 6);
}
