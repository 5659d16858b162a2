/**
 * @file
 * In-process tests for the `mirage` command-line tool: argument-parser
 * behavior, JSON layer round trips, subcommand exit codes and error
 * messages, QASM diagnostics surfaced as file:line:col, artifact
 * schema validation, and deterministic transpile output across runs
 * and thread counts. Everything drives cli::run directly -- no
 * subprocesses -- so failures point at the exact layer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "bench_circuits/generators.hh"
#include "circuit/qasm.hh"
#include "cli/args.hh"
#include "cli/cli.hh"
#include "cli/experiments.hh"
#include "common/json.hh"
#include "serve/protocol.hh"

using namespace mirage;

namespace {

struct CliResult
{
    int code;
    std::string out;
    std::string err;
};

CliResult
runCli(const std::vector<std::string> &args)
{
    std::ostringstream out, err;
    int code = cli::run(args, out, err);
    return {code, out.str(), err.str()};
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

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    f << content;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    std::ostringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

} // namespace

// --- argument parser --------------------------------------------------------

TEST(ArgumentParser, FlagsOptionsAndPositionals)
{
    cli::ArgumentParser p("test", "<file>");
    p.addFlag("--lower", "flag");
    p.addOption("--seed", "N", "42", "seed");
    p.addOption("--topology", "SPEC", "auto", "topo");
    p.parse({"a.qasm", "--lower", "--seed=7", "--topology", "grid3x3",
             "--", "--not-an-option"});
    EXPECT_TRUE(p.flag("--lower"));
    EXPECT_EQ(p.intOption("--seed"), 7);
    EXPECT_TRUE(p.optionSeen("--seed"));
    EXPECT_EQ(p.option("--topology"), "grid3x3");
    ASSERT_EQ(p.positionals().size(), 2u);
    EXPECT_EQ(p.positionals()[0], "a.qasm");
    EXPECT_EQ(p.positionals()[1], "--not-an-option");
}

TEST(ArgumentParser, DefaultsApplyWhenAbsent)
{
    cli::ArgumentParser p("test", "");
    p.addOption("--seed", "N", "42", "seed");
    p.addFlag("--lower", "flag");
    p.parse({});
    EXPECT_EQ(p.intOption("--seed"), 42);
    EXPECT_FALSE(p.optionSeen("--seed"));
    EXPECT_FALSE(p.flag("--lower"));
}

TEST(ArgumentParser, ErrorsAreUsageErrors)
{
    cli::ArgumentParser p("test", "");
    p.addOption("--seed", "N", "42", "seed");
    p.addFlag("--lower", "flag");
    EXPECT_THROW(p.parse({"--bogus"}), cli::UsageError);

    cli::ArgumentParser q("test", "");
    q.addOption("--seed", "N", "42", "seed");
    EXPECT_THROW(q.parse({"--seed"}), cli::UsageError);

    cli::ArgumentParser r("test", "");
    r.addFlag("--lower", "flag");
    EXPECT_THROW(r.parse({"--lower=yes"}), cli::UsageError);

    cli::ArgumentParser s("test", "");
    s.addOption("--seed", "N", "42", "seed");
    s.parse({"--seed", "banana"});
    EXPECT_THROW(s.intOption("--seed"), cli::UsageError);

    // Values that used to be truncated or wrapped silently.
    auto parsed = [](const std::string &value) {
        cli::ArgumentParser parser("test", "");
        parser.addOption("--n", "N", "0", "n");
        parser.parse({"--n", value});
        return parser;
    };
    EXPECT_EQ(parsed("2147483647").intOption("--n"), 2147483647);
    EXPECT_EQ(parsed("-2147483648").intOption("--n"), -2147483647 - 1);
    for (const char *v : {"4294967297", "2147483648", "-2147483649",
                          "99999999999999999999"})
        EXPECT_THROW(parsed(v).intOption("--n"), cli::UsageError) << v;
}

TEST(ArgumentParser, SeedFlagIsCheckedThroughTheOptionTable)
{
    // `mirage transpile` reads --seed through the request-option table:
    // decimal only, 0 to 2^53 so a JSON report reproduces it exactly.
    const serve::RequestOption &row =
        serve::requestOption(serve::Option::Seed);
    serve::TranspileRequest req;
    serve::applyFlag(req, row, "9007199254740992");
    EXPECT_EQ(req.options.seed, uint64_t(1) << 53);
    for (const char *v :
         {"banana", "0x10", "-1", "+1", " 1", "9007199254740993",
          "18446744073709551615", "18446744073709551616"}) {
        try {
            serve::applyFlag(req, row, v);
            ADD_FAILURE() << "accepted --seed " << v;
        } catch (const serve::RequestError &e) {
            EXPECT_EQ(e.code(), "request") << v;
            EXPECT_NE(std::string(e.what()).find("--seed"),
                      std::string::npos)
                << e.what();
        }
    }
}

// --- json layer -------------------------------------------------------------

TEST(Json, DumpParseRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("name", "qft_n8");
    doc.set("count", 42);
    doc.set("ratio", 0.1);
    doc.set("tiny", 1.77e-8);
    doc.set("ok", true);
    doc.set("none", json::Value());
    json::Value arr = json::Value::array();
    arr.push(1);
    arr.push("two");
    doc.set("mixed", std::move(arr));

    json::Value parsed = json::parse(doc.dump(2));
    EXPECT_EQ(parsed["name"].asString(), "qft_n8");
    EXPECT_EQ(parsed["count"].asInt(), 42);
    EXPECT_EQ(parsed["ratio"].asNumber(), 0.1);
    EXPECT_EQ(parsed["tiny"].asNumber(), 1.77e-8);
    EXPECT_TRUE(parsed["ok"].asBool());
    EXPECT_TRUE(parsed["none"].isNull());
    EXPECT_EQ(parsed["mixed"].at(1).asString(), "two");

    // Key order is preserved, so dumps are deterministic and diffable.
    EXPECT_EQ(parsed.dump(2), doc.dump(2));
    EXPECT_LT(doc.dump(0).find("\"name\""), doc.dump(0).find("\"count\""));
}

TEST(Json, StringEscapes)
{
    json::Value v(std::string("line\nquote\"tab\t\\"));
    json::Value parsed = json::parse(v.dump(0));
    EXPECT_EQ(parsed.asString(), "line\nquote\"tab\t\\");
}

TEST(Json, ParseErrorsCarryPosition)
{
    try {
        json::parse("{\n  \"a\": }");
        FAIL() << "expected ParseError";
    } catch (const json::ParseError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_GT(e.column(), 1);
    }
    EXPECT_THROW(json::parse(""), json::ParseError);
    EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
    EXPECT_THROW(json::parse("[1, 2"), json::ParseError);
}

// --- top-level dispatch -----------------------------------------------------

TEST(CliDispatch, NoArgumentsIsUsageError)
{
    auto r = runCli({});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliDispatch, UnknownCommandIsUsageError)
{
    // `bench` is gone: its gate is `sweep --check`.
    for (const char *command : {"frobnicate", "bench"}) {
        auto r = runCli({command});
        EXPECT_EQ(r.code, cli::kExitUsage) << command;
        EXPECT_NE(r.err.find("unknown command"), std::string::npos);
    }
}

TEST(CliDispatch, HelpAndVersionSucceed)
{
    auto help = runCli({"help"});
    EXPECT_EQ(help.code, cli::kExitSuccess);
    EXPECT_NE(help.out.find("transpile"), std::string::npos);

    auto version = runCli({"version"});
    EXPECT_EQ(version.code, cli::kExitSuccess);
    EXPECT_NE(version.out.find("mirage"), std::string::npos);

    auto sub = runCli({"transpile", "--help"});
    EXPECT_EQ(sub.code, cli::kExitSuccess);
    EXPECT_NE(sub.out.find("--topology"), std::string::npos);
}

// --- transpile --------------------------------------------------------------

namespace {

std::string
qft4Path()
{
    static const std::string path = [] {
        std::string p = tempPath("qft4.qasm");
        std::ofstream f(p);
        f << circuit::toQasm(bench::qft(4, true));
        return p;
    }();
    return path;
}

} // namespace

TEST(CliTranspile, MissingFileFailsWithExitOne)
{
    auto r = runCli({"transpile", tempPath("nope.qasm")});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTranspile, UnreadableInputFailsWithExitOne)
{
    // Every whole-file input goes through one bounded reader: a
    // directory is a read error, and /dev/zero stops at the cap instead
    // of growing until memory runs out.
    const struct
    {
        std::vector<std::string> args;
        std::string needle;
    } cases[] = {
        {{"transpile", testing::TempDir(), "--topology", "line4"},
         "cannot read"},
        {{"report", testing::TempDir()}, "cannot read"},
        {{"transpile", "/dev/zero", "--topology", "line4"},
         "larger than 64 MiB"},
        {{"report", "/dev/zero"}, "larger than 64 MiB"},
    };
    for (const auto &c : cases) {
        const auto start = std::chrono::steady_clock::now();
        auto r = runCli(c.args);
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(10))
            << c.args[1];
        EXPECT_EQ(r.code, cli::kExitFailure) << c.args[1];
        EXPECT_NE(r.err.find(c.needle), std::string::npos) << r.err;
    }
}

TEST(CliTranspile, OutputToAFullDeviceFailsWithExitOne)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    std::string path = tempPath("bell.qasm");
    writeFile(path, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
                    "h q[0];\ncx q[0],q[1];\n");
    // Every write to /dev/full fails with ENOSPC: the report is lost,
    // so the run must not exit 0.
    auto r = runCli({"transpile", path, "--topology", "line2", "--output",
                     "/dev/full"});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("cannot write '/dev/full'"), std::string::npos)
        << r.err;
}

TEST(CliTranspile, UnwritableStdoutFailsWithExitOne)
{
    std::string path = tempPath("bell.qasm");
    writeFile(path, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
                    "h q[0];\ncx q[0],q[1];\n");
    std::ostringstream out, err;
    out.setstate(std::ios::badbit);
    EXPECT_EQ(cli::run({"transpile", path, "--topology", "line2"}, out, err),
              cli::kExitFailure);
    EXPECT_NE(err.str().find("cannot write output"), std::string::npos)
        << err.str();
}

TEST(CliTranspile, MalformedQasmReportsFileLineColumn)
{
    std::string path = tempPath("bad.qasm");
    writeFile(path,
              "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\nfrob q[0];\n");
    auto r = runCli({"transpile", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find(path + ":4:1:"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("unsupported statement 'frob'"),
              std::string::npos);
}

TEST(CliTranspile, UnknownTopologyIsUsageError)
{
    auto r = runCli({"transpile", qft4Path(), "--topology", "torus9"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("unknown topology"), std::string::npos);
}

TEST(CliTranspile, TopologyTooSmallFails)
{
    auto r = runCli({"transpile", qft4Path(), "--topology", "line2"});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("qubits"), std::string::npos);
}

TEST(CliTranspile, NumericFlagsOutOfRangeAreUsageErrors)
{
    // Every rejection must be exit code 2 (usage) with a message that
    // names the offending flag -- never a crash, a hang, or a silent
    // fallback to a default. Every request option has a case here
    // (checked below); ServeProtocol.ParseRequestRejectsUnknownFields-
    // AndBadRanges holds the same for their JSON keys.
    const struct
    {
        std::vector<std::string> extra;
        std::string needle;
    } cases[] = {
        {{"--trials", "0"}, "--trials"},
        {{"--trials", "-3"}, "--trials"},
        {{"--swap-trials", "0"}, "--swap-trials"},
        {{"--fwd-bwd", "-1"}, "--fwd-bwd"},
        {{"--threads", "-1"}, "--threads"},
        // Bounded by exec::kMaxThreads, checked before any thread starts.
        {{"--threads", "1025"}, "--threads"},
        {{"--threads", "2147483647"}, "--threads"},
        // One decimal grammar for every integer flag: no '+', no blanks.
        {{"--threads", "+2"}, "--threads"},
        {{"--threads", " 2"}, "--threads"},
        {{"--trials", "+2"}, "--trials"},
        {{"--root", "1"}, "--root"},
        // Only the tabulated roots: a larger one used to start a
        // seconds-long numeric coverage build.
        {{"--root", "5"}, "--root"},
        {{"--aggression", "4"}, "--aggression"},
        {{"--aggression", "-2"}, "--aggression"},
        {{"--trials", "4294967297"}, "--trials"},
        {{"--root", "4294967298"}, "--root"},
        {{"--seed", "-1"}, "--seed"},
        {{"--seed", "18446744073709551616"}, "--seed"},
        {{"--seed", "9007199254740993"}, "--seed"},
        {{"--seed", "0x10"}, "--seed"},
        {{"--format", "xml"}, "--format"},
        {{"--flow", "fast"}, "--flow"},
        {{"--deadline-ms", "-1"}, "--deadline-ms"},
        {{"--deadline-ms", "2147483648"}, "--deadline-ms"},
        {{"--lower=yes"}, "--lower"},
        {{"--no-vf2=no"}, "--no-vf2"},
        {{"--topology", "torus9"}, "--topology"},
    };
    std::set<std::string> covered;
    for (const auto &c : cases) {
        std::vector<std::string> args = {"transpile", qft4Path()};
        args.insert(args.end(), c.extra.begin(), c.extra.end());
        auto r = runCli(args);
        EXPECT_EQ(r.code, cli::kExitUsage) << c.extra[0];
        EXPECT_NE(r.err.find(c.needle), std::string::npos) << r.err;
        covered.insert(c.extra[0].substr(0, c.extra[0].find('=')));
    }
    for (const serve::RequestOption &row : serve::requestOptions())
        EXPECT_TRUE(covered.count(row.flag)) << row.flag;
}

TEST(CliTranspile, SeedIsDecimal)
{
    // A leading zero once made --seed octal (010 ran seed 8), unlike
    // every other integer flag and the JSON `seed`.
    auto r = runCli({"transpile", qft4Path(), "--topology", "line4",
                     "--trials", "1", "--seed", "010"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    EXPECT_EQ(json::parse(r.out)["options"]["seed"].asInt(), 10);
}

TEST(CliTranspile, ReportIsByteIdenticalAcrossThreadCounts)
{
    // The report once echoed `options.threads`, the only line that
    // differed between thread counts.
    std::vector<std::string> args = {"transpile", qft4Path(), "--topology",
                                     "line4", "--threads", "1"};
    auto one = runCli(args);
    args.back() = "2";
    auto two = runCli(args);
    ASSERT_EQ(one.code, cli::kExitSuccess) << one.err;
    ASSERT_EQ(two.code, cli::kExitSuccess) << two.err;
    EXPECT_EQ(one.out, two.out);
}

TEST(CliTranspile, UncreatableCacheDirIsUsageError)
{
    // A regular file where a directory component should be: the cache
    // dir can never be created, so the run must stop up front with a
    // usage error instead of transpiling and failing to persist.
    const std::string file = tempPath("cache_blocker");
    writeFile(file, "not a directory");
    auto r = runCli({"transpile", qft4Path(), "--lower", "--cache",
                     file + "/sub"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("--cache"), std::string::npos) << r.err;

    // sweep shares the same validation.
    auto s = runCli({"sweep", "--experiment", "table3", "--cache",
                     file + "/sub"});
    EXPECT_EQ(s.code, cli::kExitUsage);
    EXPECT_NE(s.err.find("--cache"), std::string::npos) << s.err;
}

// --- catalog and cache directory --------------------------------------------

namespace {

/** The committed fit catalog at the repo root (tests/ is one below). */
const char *const kCatalogPath = MIRAGE_TEST_DATA_DIR "/../FIT_CATALOG.bin";

size_t
countOf(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

} // namespace

TEST(CliCatalog, OtherRootLowersWithoutConsultingTheCatalog)
{
    // The catalog is fitted for root 2; a root-3 run must not even try
    // it, so there is no basis-mismatch warning to print.
    const std::string path = tempPath("cx2.qasm");
    writeFile(path, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
                    "cx q[0],q[1];\n");
    auto r = runCli({"transpile", path, "--topology", "line2", "--lower",
                     "--root", "3", "--trials", "1", "--swap-trials", "1",
                     "--catalog", kCatalogPath});
    EXPECT_EQ(r.code, cli::kExitSuccess);
    EXPECT_EQ(r.err, "");
}

TEST(CliCatalog, MalformedCacheFileWarnsOnceAndChangesNothing)
{
    const std::vector<std::string> base = {
        "transpile",     qft4Path(), "--lower",   "--trials", "1",
        "--swap-trials", "1",        "--catalog", kCatalogPath};
    auto clean = runCli(base);
    ASSERT_EQ(clean.code, cli::kExitSuccess) << clean.err;

    const std::string dir = tempPath("malformed_cache");
    std::filesystem::create_directories(dir);
    writeFile(dir + "/eqlib-root2.cache", "not a mirage-eqlib cache\n");
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--cache", dir});
    auto r = runCli(args);
    EXPECT_EQ(r.code, cli::kExitSuccess) << r.err;
    EXPECT_EQ(countOf(r.err, "warning"), 1u) << r.err;
    EXPECT_NE(r.err.find("malformed"), std::string::npos) << r.err;
    EXPECT_EQ(r.out, clean.out);
}

// --- serve flags ------------------------------------------------------------

TEST(CliServe, TransportAndNumericFlagValidation)
{
    auto none = runCli({"serve"});
    EXPECT_EQ(none.code, cli::kExitUsage);
    EXPECT_NE(none.err.find("--socket"), std::string::npos);

    auto both = runCli({"serve", "--socket", "/tmp/x.sock", "--stdio"});
    EXPECT_EQ(both.code, cli::kExitUsage);

    for (const char *threads : {"-2", "1025", "2147483647"}) {
        auto badThreads =
            runCli({"serve", "--stdio", "--threads", threads});
        EXPECT_EQ(badThreads.code, cli::kExitUsage) << threads;
        EXPECT_NE(badThreads.err.find("--threads"), std::string::npos)
            << badThreads.err;
    }

    auto badEntries = runCli({"serve", "--stdio", "--cache-entries", "0"});
    EXPECT_EQ(badEntries.code, cli::kExitUsage);
    EXPECT_NE(badEntries.err.find("--cache-entries"), std::string::npos);

    for (const char *queue : {"-1", "+1"}) {
        auto badQueue = runCli({"serve", "--stdio", "--max-queue", queue});
        EXPECT_EQ(badQueue.code, cli::kExitUsage) << queue;
        EXPECT_NE(badQueue.err.find("--max-queue"), std::string::npos)
            << badQueue.err;
    }
}

TEST(CliServeBench, NumericFlagValidation)
{
    // The workload is fixed (serve/traffic.cc): its former knobs are
    // unknown options now, so a run can never drift from the baseline.
    for (const char *flag :
         {"--clients", "--requests", "--distinct", "--width", "--gates",
          "--topology", "--trials", "--swap-trials", "--fwd-bwd", "--seed",
          "--aggression", "--lower", "--threads", "--chaos-requests",
          "--faults"}) {
        auto r = runCli({"serve-bench", flag, "1"});
        EXPECT_EQ(r.code, cli::kExitUsage) << flag;
        EXPECT_NE(r.err.find(std::string("unknown option '") + flag),
                  std::string::npos)
            << r.err;
    }
}

TEST(CliServeBench, CheckWithoutOutLeavesTheBaselineAlone)
{
    // The documented local gate `serve-bench --check BENCH_serve.json`
    // must not rewrite the baseline it reads: the artifact goes to
    // stdout, the report to stderr, and nothing lands in the working
    // directory.
    const std::string baseline = tempPath("serve_baseline.json");
    const std::string committed =
        readFile(MIRAGE_TEST_DATA_DIR "/../BENCH_serve.json");
    writeFile(baseline, committed);
    const std::filesystem::path work = tempPath("serve_bench_cwd");
    std::filesystem::create_directories(work);
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(work);
    auto r = runCli({"serve-bench", "--check", baseline});
    std::filesystem::current_path(cwd);

    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    EXPECT_EQ(json::parse(r.out)["kind"].asString(),
              json::parse(committed)["kind"].asString());
    EXPECT_NE(r.err.find("check OK"), std::string::npos) << r.err;
    EXPECT_EQ(readFile(baseline), committed);
    EXPECT_FALSE(std::filesystem::exists(work / "BENCH_serve.json"));
    EXPECT_TRUE(std::filesystem::is_empty(work));
}

TEST(CliTranspile, JsonReportSchemaAndDeterminism)
{
    std::vector<std::string> args = {"transpile", qft4Path(),
                                     "--topology", "line4",
                                     "--seed",     "99",
                                     "--trials",   "4"};
    auto first = runCli(args);
    ASSERT_EQ(first.code, cli::kExitSuccess) << first.err;

    json::Value doc = json::parse(first.out);
    EXPECT_EQ(doc["schemaVersion"].asInt(), cli::kArtifactSchemaVersion);
    EXPECT_EQ(doc["kind"].asString(), "mirage-transpile");
    EXPECT_EQ(doc["input"]["qubits"].asInt(), 4);
    EXPECT_EQ(doc["topology"].find("name")->asString(), "line-4");
    EXPECT_GT(doc["result"]["metrics"]["totalPulses"].asNumber(), 0.0);
    EXPECT_FALSE(doc.contains("lowered"));

    // Identical invocation -> byte-identical report.
    auto second = runCli(args);
    EXPECT_EQ(first.out, second.out);

    // The determinism guarantee: thread count never changes the
    // transpile result (nor the report: ReportIsByteIdenticalAcross-
    // ThreadCounts).
    args.push_back("--threads");
    args.push_back("4");
    auto threaded = runCli(args);
    json::Value threadedDoc = json::parse(threaded.out);
    EXPECT_EQ(doc["result"].dump(2), threadedDoc["result"].dump(2));
}

TEST(CliTranspile, LoweredQasmOutputRoundTripsThroughFromQasm)
{
    std::string outPath = tempPath("lowered.qasm");
    auto r = runCli({"transpile", qft4Path(), "--topology", "line4",
                     "--trials", "2", "--lower", "--format", "qasm",
                     "--output", outPath});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    circuit::Circuit lowered = circuit::fromQasm(readFile(outPath));
    EXPECT_EQ(lowered.numQubits(), 4);
    EXPECT_GT(lowered.size(), 0u);
}

TEST(CliTranspile, LoweredJsonReportsMeasuredMetrics)
{
    auto r = runCli({"transpile", qft4Path(), "--topology", "line4",
                     "--trials", "2", "--lower"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value doc = json::parse(r.out);
    ASSERT_TRUE(doc.contains("lowered"));
    EXPECT_GT(doc["lowered"]["metrics"]["totalPulses"].asNumber(), 0.0);
    EXPECT_LT(doc["lowered"]["worstInfidelity"].asNumber(), 1e-6);
}

// --- sweep + report ---------------------------------------------------------

TEST(CliSweep, ListNamesEveryRegisteredExperiment)
{
    auto r = runCli({"sweep", "--list"});
    EXPECT_EQ(r.code, cli::kExitSuccess);
    for (const auto &e : cli::experimentRegistry())
        EXPECT_NE(r.out.find(e.name), std::string::npos) << e.name;
}

TEST(CliSweep, UnknownExperimentListsAvailable)
{
    auto r = runCli({"sweep", "--experiment", "fig99"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("unknown experiment"), std::string::npos);
    EXPECT_NE(r.err.find("table3"), std::string::npos);
    EXPECT_NE(r.err.find("mirror-qv"), std::string::npos);
    // The error teaches discovery: it names the --list flag.
    EXPECT_NE(r.err.find("sweep --list"), std::string::npos);
}

TEST(CliSweep, OverflowingKnobIsUsageError)
{
    auto r = runCli({"sweep", "--experiment", "fig8", "--trials",
                     "4294967297", "--stdout"});
    EXPECT_EQ(r.code, cli::kExitUsage) << r.out;
    EXPECT_NE(r.err.find("--trials"), std::string::npos) << r.err;
}

TEST(CliSweep, ThreadsAboveTheCapIsUsageErrorOnEveryCommand)
{
    // transpile and serve have their rows in the tables above; these
    // are the other two commands that take --threads.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"sweep", "--experiment", "fig8",
                                   "--stdout", "--threads", "1025"},
          std::vector<std::string>{"catalog", "stats", "--threads",
                                   "1025"}}) {
        auto r = runCli(args);
        EXPECT_EQ(r.code, cli::kExitUsage) << args[0];
        EXPECT_NE(r.err.find("--threads"), std::string::npos) << r.err;
    }
}

TEST(CliSweep, MissingExperimentIsUsageError)
{
    auto r = runCli({"sweep"});
    EXPECT_EQ(r.code, cli::kExitUsage);
}

TEST(CliSweep, Fig8ArtifactValidatesRendersAndExportsCsv)
{
    std::string dir = tempPath("arts");
    auto r = runCli({"sweep", "--experiment", "fig8", "--out", dir,
                     "--csv"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    EXPECT_NE(r.out.find("fig8.json"), std::string::npos);

    json::Value artifact = json::parse(readFile(dir + "/fig8.json"));
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["schemaVersion"].asInt(),
              cli::kArtifactSchemaVersion);
    EXPECT_EQ(artifact["kind"].asString(), "mirage-sweep");
    EXPECT_EQ(artifact["experiment"].asString(), "fig8");
    EXPECT_EQ(artifact["rows"].size(), 2u);

    std::string csv = readFile(dir + "/fig8.csv");
    EXPECT_NE(csv.find("flow,depthPulses"), std::string::npos);
    EXPECT_NE(csv.find("MIRAGE"), std::string::npos);

    auto report = runCli({"report", dir + "/fig8.json"});
    ASSERT_EQ(report.code, cli::kExitSuccess) << report.err;
    EXPECT_NE(report.out.find("| flow |"), std::string::npos);
    EXPECT_NE(report.out.find("MIRAGE"), std::string::npos);
}

TEST(CliSweep, StdoutModeEmitsArtifactJson)
{
    auto r = runCli({"sweep", "--experiment", "fig8", "--stdout"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value artifact = json::parse(r.out);
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
}

TEST(CliSweep, MirrorQvSweepVerifiesBitstringsAboveSixQubits)
{
    // --limit 1 keeps this to the smallest width (8 qubits) -- already
    // strictly past the 6-qubit exhaustive-unitary ceiling.
    auto r = runCli({"sweep", "--experiment", "mirror-qv", "--limit", "1",
                     "--stdout"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value artifact = json::parse(r.out);
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["experiment"].asString(), "mirror-qv");
    ASSERT_EQ(artifact["rows"].size(), 1u);
    const json::Value &row = artifact["rows"].at(0);
    EXPECT_GT(row["qubits"].asInt(), 6);
    EXPECT_TRUE(row["verified"].asBool());
    EXPECT_GE(row["routedSuccess"].asNumber(), 1.0 - 1e-9);
    EXPECT_TRUE(artifact["summary"]["allVerified"].asBool());
}

TEST(CliSweep, MatrixSweepCoversTopologiesAndAggressions)
{
    // --limit 2 restricts the suite to the two mirror workloads (they
    // lead the suite precisely so the smoke slice self-verifies):
    // 2 workloads x 3 topologies x 4 aggression levels = 24 cells.
    auto r = runCli({"sweep", "--experiment", "matrix", "--limit", "2",
                     "--stdout"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value artifact = json::parse(r.out);
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    ASSERT_EQ(artifact["rows"].size(), 24u);
    EXPECT_EQ(artifact["summary"]["mirrorCells"].asInt(), 24);
    EXPECT_TRUE(artifact["summary"]["allMirrorCellsVerified"].asBool());

    // Every topology and aggression level appears.
    std::set<std::string> topologies;
    std::set<int64_t> aggressions;
    for (size_t i = 0; i < artifact["rows"].size(); ++i) {
        const json::Value &row = artifact["rows"].at(i);
        topologies.insert(row["topology"].asString());
        aggressions.insert(row["aggression"].asInt());
        EXPECT_TRUE(row["verified"].asBool())
            << row["circuit"].asString() << " on "
            << row["topology"].asString() << " aggression "
            << row["aggression"].asInt();
    }
    EXPECT_EQ(topologies.size(), 3u);
    EXPECT_EQ(aggressions, (std::set<int64_t>{0, 1, 2, 3}));
}

// --- sweep --check (the counter-gated bench experiments) --------------------

namespace {

/** Tiny-knob `bench` sweep into `outDir`, so the test stays fast. */
std::vector<std::string>
benchArgs(const std::string &outDir)
{
    return {"sweep",         "--experiment", "bench", "--limit",
            "2",             "--trials",     "2",     "--swap-trials",
            "1",             "--fwd-bwd",    "1",     "--out",
            outDir};
}

/** Lower the first row's heuristicEvals by one in an artifact file. */
void
plantRegression(const std::string &from, const std::string &to)
{
    std::string text = readFile(from);
    const std::string key = "\"heuristicEvals\": ";
    size_t start = text.find(key);
    ASSERT_NE(start, std::string::npos);
    start += key.size();
    size_t end = text.find_first_of(",\n", start);
    long long evals = std::stoll(text.substr(start, end - start));
    writeFile(to, text.substr(0, start) + std::to_string(evals - 1) +
                      text.substr(end));
}

} // namespace

TEST(CliBench, WritesValidArtifactAndSelfCheckPasses)
{
    const std::string dir = tempPath("bench_self");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    const std::string path = dir + "/bench.json";
    json::Value artifact = json::parse(readFile(path));
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["experiment"].asString(), "bench");
    ASSERT_EQ(artifact["rows"].size(), 2u);
    EXPECT_GT(artifact["rows"].at(0)["heuristicEvals"].asInt(), 0);
    EXPECT_TRUE(artifact["summary"]["outputsBitIdentical"].asBool());

    // Re-running against the just-written baseline must pass: the
    // counters are deterministic. --stdout keeps stdout one artifact.
    auto args = benchArgs(tempPath("bench_self2"));
    args.insert(args.end(), {"--check", path, "--stdout"});
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitSuccess) << check.err;
    EXPECT_NE(check.err.find("check OK"), std::string::npos);
    EXPECT_EQ(json::parse(check.out)["rows"].size(), 2u);
}

TEST(CliBench, CheckFailsOnCounterRegression)
{
    const std::string dir = tempPath("bench_base");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    const std::string doctored = tempPath("bench_doctored.json");
    plantRegression(dir + "/bench.json", doctored);

    auto args = benchArgs(tempPath("bench_cur"));
    args.insert(args.end(), {"--check", doctored});
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitFailure);
    EXPECT_NE(check.err.find("regressed"), std::string::npos) << check.err;
}

TEST(CliBench, CheckRejectsMismatchedParameters)
{
    const std::string dir = tempPath("bench_params");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    auto args = std::vector<std::string>{
        "sweep",       "--experiment", "bench", "--limit",
        "2",           "--trials",     "1",     "--swap-trials",
        "1",           "--fwd-bwd",    "1",     "--out",
        tempPath("bench_params2"), "--check", dir + "/bench.json"};
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitFailure);
    EXPECT_NE(check.err.find("differs from the baseline"),
              std::string::npos)
        << check.err;
}

TEST(CliBench, CheckReadsBaselineBeforeOverwritingIt)
{
    // `--out DIR --check DIR/bench.json` names one file, so the gate
    // must read the baseline before writing the fresh artifact --
    // otherwise it compares the new file to itself and always passes.
    const std::string dir = tempPath("bench_inplace");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    // Plant a regression in the baseline, then check IN PLACE.
    const std::string path = dir + "/bench.json";
    plantRegression(path, path);

    auto args = benchArgs(dir);
    args.insert(args.end(), {"--check", path});
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitFailure) << check.out;
    EXPECT_NE(check.err.find("regressed"), std::string::npos) << check.err;
}

TEST(CliBench, RejectsBadLimit)
{
    auto r = runCli({"sweep", "--experiment", "bench", "--limit", "0"});
    EXPECT_EQ(r.code, cli::kExitUsage);
}

TEST(CliBench, CheckRejectsAnExperimentThatIsNotCounterGated)
{
    const std::string dir = tempPath("bench_gate");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    auto check = runCli({"sweep", "--experiment", "table3", "--limit", "1",
                         "--catalog", kCatalogPath, "--out",
                         tempPath("table3_gate"), "--check",
                         dir + "/bench.json"});
    EXPECT_EQ(check.code, cli::kExitFailure);
    EXPECT_NE(check.err.find("not a counter-gated artifact"),
              std::string::npos)
        << check.err;
}

TEST(CliReport, RejectsMalformedJsonWithPosition)
{
    std::string path = tempPath("garbage.json");
    writeFile(path, "{\n  not json\n");
    auto r = runCli({"report", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find(path + ":2:"), std::string::npos) << r.err;
}

TEST(CliReport, RejectsSchemaVersionDrift)
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("table1"), {});
    artifact.set("schemaVersion", 99);
    std::string path = tempPath("drift.json");
    writeFile(path, artifact.dump(2));
    auto r = runCli({"report", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("schemaVersion"), std::string::npos);
}

TEST(CliReport, RejectsMissingRequiredKeys)
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("table1"), {});
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError));

    json::Value noRows = json::Value::object();
    for (const auto &[k, v] : artifact.members()) {
        if (k != "rows")
            noRows.set(k, v);
    }
    EXPECT_FALSE(cli::validateArtifact(noRows, &schemaError));
    EXPECT_NE(schemaError.find("rows"), std::string::npos);

    EXPECT_FALSE(cli::validateArtifact(json::Value(3.0), &schemaError));

    // Every key the renderers dereference must be validated up front:
    // report has to exit 1 on these, never crash (regression).
    json::Value noPaperArtifact = json::Value::object();
    for (const auto &[k, v] : artifact.members()) {
        if (k != "paperArtifact")
            noPaperArtifact.set(k, v);
    }
    EXPECT_FALSE(cli::validateArtifact(noPaperArtifact, &schemaError));
    std::string path = tempPath("no-paper-artifact.json");
    writeFile(path, noPaperArtifact.dump(2));
    auto r = runCli({"report", path});
    EXPECT_EQ(r.code, cli::kExitFailure);

    json::Value badColumn = artifact;
    json::Value cols = json::Value::array();
    json::Value numericKey = json::Value::object();
    numericKey.set("key", 7);
    numericKey.set("label", "seven");
    cols.push(std::move(numericKey));
    badColumn.set("columns", std::move(cols));
    EXPECT_FALSE(cli::validateArtifact(badColumn, &schemaError));
    EXPECT_NE(schemaError.find("key/label"), std::string::npos);
}

// --- experiment registry ----------------------------------------------------

TEST(ExperimentRegistry, CoversTheReproduciblePaperArtifacts)
{
    for (const char *name :
         {"fig3-4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11",
          "fig12", "table1", "table2", "table3", "fig12-large", "bench",
          "fig13-scaling", "bench-lowering"})
        EXPECT_NE(cli::findExperiment(name), nullptr) << name;
    EXPECT_EQ(cli::findExperiment("fig7"), nullptr);
    // Fig. 13 is the `bench`, `fig13-scaling` and `bench-lowering`
    // sweeps.
    EXPECT_EQ(cli::findExperiment("fig13"), nullptr);
}

namespace {

/** Run a registered experiment and assert its artifact is schema-valid. */
json::Value
validArtifact(const char *name, const cli::SweepKnobs &knobs = {})
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment(name), knobs);
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << name << ": " << schemaError;
    return artifact;
}

} // namespace

TEST(ExperimentRegistry, Fig3And4CoverageMatchesThePaperAnchors)
{
    const json::Value a = validArtifact("fig3-4");
    ASSERT_EQ(a["rows"].size(), 17u);
    bool sawRootTwo = false;
    for (size_t i = 0; i < a["rows"].size(); ++i) {
        const json::Value &row = a["rows"].at(i);
        if (row["basis"].asString() != "riswap-2" || row["k"].asInt() != 2)
            continue;
        sawRootTwo = true;
        EXPECT_NEAR(row["coverage"].asNumber(), 79.01, 0.01);
        EXPECT_NEAR(row["mirrorCoverage"].asNumber(), 94.36, 0.01);
    }
    EXPECT_TRUE(sawRootTwo);
    const json::Value &kMax = a["summary"]["kMax"];
    EXPECT_EQ(kMax["cnot"].asInt(), 3);
    EXPECT_EQ(kMax["riswap-2"].asInt(), 3);
    EXPECT_EQ(kMax["riswap-3"].asInt(), 5);
    EXPECT_EQ(kMax["riswap-4"].asInt(), 6);
}

TEST(ExperimentRegistry, Fig5ConvergenceCheckpointsAndReferences)
{
    cli::SweepKnobs knobs;
    knobs.mcIterations = 8;
    const json::Value a = validArtifact("fig5", knobs);
    EXPECT_EQ(a["parameters"]["mcIterations"].asInt(), 8);
    const json::Value &rows = a["rows"];
    ASSERT_EQ(rows.size(), 4u);
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows.at(i)["iteration"].asInt(), int64_t(1) << i);
        for (const char *strategy :
             {"exact", "approximate", "exactMirrors", "approxMirrors"}) {
            ASSERT_NE(rows.at(i).find(strategy), nullptr) << strategy;
            if (i + 1 == rows.size()) {
                EXPECT_EQ(rows.at(i)[strategy].asNumber(),
                          a["summary"][strategy]["score"].asNumber());
            }
        }
    }
    EXPECT_EQ(a["columns"].size(), 5u); // iteration + four strategies
    EXPECT_NEAR(a["summary"]["exactReference"].asNumber(), 0.9729, 1e-4);
    EXPECT_NEAR(a["summary"]["exactMirrorsReference"].asNumber(), 0.9008,
                1e-4);
}

TEST(ExperimentRegistry, Fig6CphaseMirrorsCostOneMorePulse)
{
    const json::Value a = validArtifact("fig6");
    const json::Value &rows = a["rows"];
    ASSERT_EQ(rows.size(), 8u);
    for (size_t i = 0; i < rows.size(); ++i) {
        const bool cnot = i + 1 == rows.size(); // phi = pi
        EXPECT_EQ(rows.at(i)["cpK"].asInt(), 2) << i;
        EXPECT_EQ(rows.at(i)["pswapK"].asInt(), cnot ? 2 : 3) << i;
        EXPECT_DOUBLE_EQ(rows.at(i)["cpCost"].asNumber(), 1.0) << i;
        EXPECT_DOUBLE_EQ(rows.at(i)["pswapCost"].asNumber(),
                         cnot ? 1.0 : 1.5)
            << i;
    }
}

TEST(ExperimentRegistry, Fig9GreedyMinimaHistogram)
{
    const json::Value a = validArtifact("fig9");
    std::map<int64_t, int64_t> histogram;
    for (size_t i = 0; i < a["rows"].size(); ++i)
        histogram[a["rows"].at(i)["depthPulses"].asInt()] =
            a["rows"].at(i)["trials"].asInt();
    EXPECT_EQ(histogram,
              (std::map<int64_t, int64_t>{{10, 32}, {19, 15}, {21, 17}}));
    EXPECT_EQ(a["summary"]["best"].asNumber(), 10.0);
    EXPECT_EQ(a["summary"]["worst"].asNumber(), 21.0);
    EXPECT_EQ(a["summary"]["trials"].asInt(), 64);
}

TEST(ExperimentRegistry, Fig13ScalingCacheIsOutputNeutral)
{
    cli::SweepKnobs knobs;
    knobs.suiteLimit = 2;
    const json::Value a = validArtifact("fig13-scaling", knobs);
    EXPECT_TRUE(a["summary"]["cachedEqualsUncached"].asBool());
    // The cache is cleared before each variant, so its counters are
    // deterministic: QFT(16) and QFT(24) with the final swaps.
    const struct
    {
        int qubits, blocks, hits, misses;
    } expected[] = {{16, 128, 111, 17}, {24, 288, 263, 25}};
    const json::Value &rows = a["rows"];
    ASSERT_EQ(rows.size(), std::size(expected));
    for (size_t i = 0; i < rows.size(); ++i) {
        const json::Value &row = rows.at(i);
        EXPECT_EQ(row["qubits"].asInt(), expected[i].qubits);
        EXPECT_EQ(row["blocks"].asInt(), expected[i].blocks);
        EXPECT_EQ(row["coordCacheHits"].asInt(), expected[i].hits);
        EXPECT_EQ(row["coordCacheMisses"].asInt(), expected[i].misses);
        EXPECT_TRUE(row["identical"].asBool());
    }
}

TEST(ExperimentRegistry, Fig12LargeGatesSparseMemoryAndCounters)
{
    // One circuit per device keeps this to CI-test territory; the
    // artifact must be schema-valid and its own counter/memory gate
    // must accept it (checkBenchCounters is what CI's bench job runs).
    cli::SweepKnobs knobs;
    knobs.suiteLimit = 1;
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("fig12-large"), knobs);
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["rows"].size(), 3u); // one per device
    EXPECT_TRUE(artifact["summary"]["memorySubQuadratic"].asBool());
    std::string report;
    EXPECT_TRUE(cli::checkBenchCounters(artifact, artifact, &report))
        << report;
}

TEST(CliTranspile, RoutesOnLargeSparseTopology)
{
    // End-to-end CLI on a 433-qubit sparse device: route a small QASM
    // circuit and check the reported topology block.
    std::string path = tempPath("ghz5.qasm");
    writeFile(path, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n"
                    "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                    "cx q[2],q[3];\ncx q[3],q[4];\n");
    auto r = runCli({"transpile", path, "--topology", "heavyhex433",
                     "--trials", "1", "--swap-trials", "1", "--fwd-bwd",
                     "1", "--output", "-"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("\"heavyhex-433\""), std::string::npos);
    EXPECT_NE(r.out.find("\"qubits\": 433"), std::string::npos);
}

TEST(ExperimentRegistry, Table1MatchesPaperScores)
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("table1"), {});
    ASSERT_EQ(artifact["rows"].size(), 3u);
    // sqrt(iSWAP) exact Haar scores: paper Table I reports 1.105 plain
    // and 1.029 with mirrors.
    const json::Value &row = artifact["rows"].at(0);
    EXPECT_NEAR(row["haar"].asNumber(), 1.105, 0.02);
    EXPECT_NEAR(row["mirrorHaar"].asNumber(), 1.029, 0.02);
}

// --- coverage ---------------------------------------------------------------

TEST(CliCoverage, CheckFailsOnDriftAndLeavesFreshSource)
{
    EXPECT_EQ(runCli({"coverage"}).code, cli::kExitUsage);
    EXPECT_EQ(runCli({"coverage", "refresh"}).code, cli::kExitUsage);

    const std::string path = tempPath("coverage_tables.cc");
    writeFile(path, "// stale\n");
    std::filesystem::remove(path + ".fresh");
    auto r = runCli({"coverage", "check", "--path", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("drifted from the numeric build"), std::string::npos)
        << r.err;
    const std::string fresh = readFile(path + ".fresh");
    EXPECT_NE(fresh.find("Generated by `mirage coverage build`"),
              std::string::npos);
    EXPECT_NE(fresh.find("{\"riswap-4\", kRiswap4}"), std::string::npos);
}
