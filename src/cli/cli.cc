/**
 * @file
 * `mirage` subcommand implementations: transpile (QASM in, JSON/QASM
 * out), sweep (experiment registry -> versioned artifacts, with
 * --check as the BENCH_*.json counter gate), report (artifacts ->
 * markdown). All user-facing failures are reported as
 * "mirage: ..." messages on the error stream with scripting-grade exit
 * codes; nothing in this layer calls exit() or aborts.
 */

#include "cli/cli.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "cli/args.hh"
#include "cli/experiments.hh"
#include "circuit/qasm.hh"
#include "common/atomic_file.hh"
#include "common/exec.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "decomp/catalog.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "monodromy/coverage.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "topology/coupling.hh"

namespace mirage::cli {

namespace {

/** Runtime (non-usage) failure: maps to exit code 1. */
class CliError : public std::runtime_error
{
  public:
    explicit CliError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * Validate a --cache DIR value up front: create it if absent, and
 * reject a path that cannot be a writable directory with a clear
 * usage error (exit 2) instead of silently fitting cold and failing
 * to persist at exit. Returns the (possibly empty) directory.
 */
std::string
validateCacheDir(const std::string &dir)
{
    if (dir.empty())
        return dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!std::filesystem::is_directory(dir, ec))
        throw UsageError("--cache '" + dir +
                         "' is not a directory and cannot be created" +
                         (ec ? " (" + ec.message() + ")" : ""));
    if (::access(dir.c_str(), W_OK) != 0)
        throw UsageError("--cache directory '" + dir +
                         "' is not writable");
    return dir;
}

/** A whole input file, or stdin for "-", through the bounded readAll. */
std::string
readInput(const std::string &path)
{
    const bool fromStdin = path == "-";
    const int fd =
        fromStdin ? STDIN_FILENO : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw CliError("cannot open '" + path + "'");
    std::string text;
    const int error = readAll(fd, text);
    if (!fromStdin)
        ::close(fd);
    if (error == EFBIG)
        throw CliError("'" + path + "' is larger than 64 MiB");
    if (error != 0)
        throw CliError("cannot read '" + path + "': " +
                       std::strerror(error));
    return text;
}

/** --threads, range-checked by exec::resolveThreads before any thread
 * starts; a bad value is a usage error that names the flag. */
int
threadsOption(const ArgumentParser &parser)
{
    const int threads = parser.intOption("--threads");
    try {
        exec::resolveThreads(threads);
    } catch (const std::invalid_argument &e) {
        throw UsageError(std::string("option '--threads': ") + e.what());
    }
    return threads;
}

/** Parse a JSON file; a syntax error is a CliError at file:line:col. */
json::Value
readJson(const std::string &path)
{
    const std::string text = readInput(path);
    try {
        return json::parse(text);
    } catch (const json::ParseError &e) {
        throw CliError(path + ":" + std::to_string(e.line()) + ":" +
                       std::to_string(e.column()) + ": " + e.what());
    }
}

void
writeOutput(const std::string &path, const std::string &content,
            std::ostream &out)
{
    if (path.empty() || path == "-") {
        out << content;
        return;
    }
    std::ofstream f(path);
    if (f) {
        f << content;
        f.close();
    }
    if (!f)
        throw CliError("cannot write '" + path + "': " +
                       std::strerror(errno));
}

// --- transpile --------------------------------------------------------------

int
cmdTranspile(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err)
{
    // The request options come from the serve protocol's table, so their
    // flags, ranges and defaults are the ones a served request gets.
    ArgumentParser parser("transpile", "<input.qasm | ->");
    const serve::TranspileRequest defaults;
    for (const serve::RequestOption &row : serve::requestOptions()) {
        const json::Value d = serve::optionValue(defaults, row);
        if (d.isBool())
            parser.addFlag(row.flag, row.help);
        else
            parser.addOption(row.flag, row.valueName,
                             d.isString() ? d.asString() : d.dump(0),
                             row.help);
    }
    parser.addOption("--threads", "N", "1",
                     "trial-grid worker threads (0 = all cores); output "
                     "is bit-identical for every value");
    parser.addOption("--cache", "DIR", "",
                     "equivalence-library cache directory (load before, "
                     "save after; implies faster --lower reruns)");
    parser.addOption("--catalog", "FILE", "",
                     "fit catalog warm-starting --lower ('none' "
                     "disables; default: ./FIT_CATALOG.bin when "
                     "present)");
    parser.addOption("--output", "FILE", "",
                     "write output here instead of stdout");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().size() != 1)
        throw UsageError("transpile expects exactly one input file "
                         "(or '-' for stdin); see 'mirage transpile "
                         "--help'");

    // A bad value is a "request" error, which run() maps to exit 2.
    serve::TranspileRequest req;
    for (const serve::RequestOption &row : serve::requestOptions())
        if (parser.optionSeen(row.flag))
            serve::applyFlag(req, row, parser.option(row.flag));
    mirage_pass::TranspileOptions &opts = req.options;
    opts.threads = threadsOption(parser);

    const std::string &path = parser.positionals()[0];
    req.name = path == "-" ? "<stdin>" : path;
    const circuit::Circuit input =
        serve::parseRequestCircuit(readInput(path), req.name,
                                   "'" + path + "'");
    if (req.deadlineMs > 0)
        opts.deadline = Deadline::afterMs(req.deadlineMs);

    const topology::CouplingMap topo = serve::parseTopology(
        req.topology, input.numQubits(),
        serve::requestOption(serve::Option::Topology).flag);
    serve::checkTopologyFits(input, topo, req.topology);

    // Constructing the library preseeds standard-gate fits, so build
    // it only when the lowering stage will actually run.
    std::unique_ptr<decomp::EquivalenceLibrary> library;
    const std::string cacheDir = validateCacheDir(parser.option("--cache"));
    if (opts.lowerToBasis) {
        decomp::LibraryReport report;
        library = decomp::openLibrary(opts.rootDegree,
                                      parser.option("--catalog"), cacheDir,
                                      &report);
        const decomp::CatalogLoad &catalog = report.catalog;
        if (!catalog.path.empty() && !catalog.loaded())
            err << "mirage: warning: fit catalog "
                << decomp::loadStatusName(catalog.result.status) << ": "
                << catalog.result.message << "; fitting cold\n";
        if (!report.cacheWarning.empty())
            err << "mirage: warning: " << report.cacheWarning << "\n";
        opts.equivalenceLibrary = library.get();
    }

    mirage_pass::TranspileResult res;
    try {
        res = mirage_pass::transpile(input, topo, opts);
    } catch (const DeadlineError &e) {
        err << "mirage: deadline: " << e.what() << " (budget "
            << int64_t(req.deadlineMs) << " ms)\n";
        return kExitFailure;
    }

    if (library) {
        const std::string failure = decomp::saveLibrary(*library, cacheDir);
        if (!failure.empty())
            err << "mirage: warning: " << failure << "\n";
    }

    // The serve module's shared builder: a `mirage serve` response is
    // bit-identical to this one-shot path by construction.
    const json::Value output = serve::transpileOutput(req, input, topo, res);
    writeOutput(parser.option("--output"),
                output.isString() ? output.asString() : output.dump(2),
                out);
    return kExitSuccess;
}

// --- sweep ------------------------------------------------------------------

int
cmdSweep(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    ArgumentParser parser("sweep", "--experiment <name>");
    parser.addOption("--experiment", "NAME", "",
                     "registered experiment to run (see --list)");
    parser.addOption("--out", "DIR", ".",
                     "directory for the emitted artifacts");
    parser.addOption("--seeds", "N", "",
                     "independent instances averaged (experiment "
                     "default when omitted)");
    // Same flag names as `mirage transpile`; here they override the
    // experiment's own trial grid.
    auto flagOf = [](serve::Option o) { return serve::requestOption(o).flag; };
    parser.addOption(flagOf(serve::Option::Trials), "N", "",
                     "layout trials (default: experiment)");
    parser.addOption(flagOf(serve::Option::SwapTrials), "N", "",
                     "routing repeats per layout (default: experiment)");
    parser.addOption(flagOf(serve::Option::FwdBwd), "N", "",
                     "layout refinement rounds (default: experiment)");
    parser.addOption("--threads", "N", "1",
                     "trial-grid worker threads (0 = all cores)");
    parser.addOption("--mc-iters", "N", "",
                     "Monte-Carlo iterations (table2, fig5)");
    parser.addOption("--limit", "N", "",
                     "first N suite circuits / widths (default: all)");
    parser.addOption("--cache", "DIR", "",
                     "equivalence-library cache directory shared across "
                     "runs (table3, mirror-*)");
    parser.addOption("--catalog", "FILE", "",
                     "fit catalog warm-starting lowering experiments "
                     "('none' disables; default: ./FIT_CATALOG.bin "
                     "when present)");
    parser.addOption("--check", "FILE", "",
                     "baseline artifact of a counter-gated experiment "
                     "(bench, bench-lowering, fig12-large); exit 1 if a "
                     "deterministic counter regressed");
    parser.addFlag("--csv", "also write <name>.csv next to the JSON");
    parser.addFlag("--stdout",
                   "print the artifact JSON to stdout instead of "
                   "writing files");
    parser.addFlag("--list", "list registered experiments and exit");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.flag("--list")) {
        for (const auto &e : experimentRegistry())
            out << e.name << "\t" << e.artifact << "\t" << e.title
                << "\n";
        return kExitSuccess;
    }
    if (!parser.positionals().empty())
        throw UsageError("sweep takes no positional operands");
    const std::string name = parser.option("--experiment");
    if (name.empty())
        throw UsageError("sweep requires --experiment <name> (or "
                         "--list)");
    const Experiment *experiment = findExperiment(name);
    if (!experiment) {
        std::string known;
        for (const auto &e : experimentRegistry())
            known += (known.empty() ? "" : ", ") + e.name;
        throw UsageError("unknown experiment '" + name +
                         "' (available: " + known +
                         "; run 'mirage sweep --list' for one-line "
                         "descriptions)");
    }

    SweepKnobs knobs;
    auto knob = [&parser](const char *flag, int *slot) {
        if (!parser.optionSeen(flag))
            return;
        int v = parser.intOption(flag);
        if (v < 1)
            throw UsageError(std::string("option '") + flag +
                             "' must be >= 1");
        *slot = v;
    };
    knob("--seeds", &knobs.seeds);
    knob(flagOf(serve::Option::Trials), &knobs.layoutTrials);
    knob(flagOf(serve::Option::SwapTrials), &knobs.swapTrials);
    knob(flagOf(serve::Option::FwdBwd), &knobs.fwdBwd);
    knob("--mc-iters", &knobs.mcIterations);
    knob("--limit", &knobs.suiteLimit);
    knobs.threads = threadsOption(parser);
    knobs.cacheDir = validateCacheDir(parser.option("--cache"));
    knobs.catalogPath = parser.option("--catalog");

    // Read the baseline before writing the artifact: `--out DIR --check
    // DIR/<name>.json` names one file, and writing first would gate the
    // new artifact against itself -- always passing.
    const std::string baselinePath = parser.option("--check");
    const json::Value baseline =
        baselinePath.empty() ? json::Value() : readJson(baselinePath);

    err << "mirage: running experiment '" << name << "' ("
        << experiment->artifact << ")...\n";
    json::Value artifact = runExperiment(*experiment, knobs);

    if (parser.flag("--stdout")) {
        out << artifact.dump(2);
    } else {
        const std::string dir = parser.option("--out");
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        const std::string jsonPath = dir + "/" + name + ".json";
        writeOutput(jsonPath, artifact.dump(2), out);
        out << "wrote " << jsonPath << " (" << artifact["rows"].size()
            << " rows)\n";
        if (parser.flag("--csv")) {
            const std::string csvPath = dir + "/" + name + ".csv";
            writeOutput(csvPath, renderCsv(artifact), out);
            out << "wrote " << csvPath << "\n";
        }
    }

    // The check report goes to stderr, so --stdout stays one artifact.
    if (baselinePath.empty())
        return kExitSuccess;
    std::string report;
    const bool ok = checkBenchCounters(artifact, baseline, &report);
    err << report;
    if (!ok) {
        err << "mirage: check against '" << baselinePath << "' failed\n";
        return kExitFailure;
    }
    err << "mirage: check OK: no counter regressions versus "
        << baselinePath << "\n";
    return kExitSuccess;
}

// --- report -----------------------------------------------------------------

int
cmdReport(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    ArgumentParser parser("report", "<artifact.json>...");
    parser.addOption("--output", "FILE", "",
                     "write the markdown here instead of stdout");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().empty())
        throw UsageError("report expects at least one artifact file");

    std::string rendered;
    for (const auto &path : parser.positionals()) {
        const json::Value artifact = readJson(path);
        std::string schemaError;
        if (!validateArtifact(artifact, &schemaError)) {
            err << "mirage: " << path << ": invalid artifact: "
                << schemaError << "\n";
            return kExitFailure;
        }
        if (!rendered.empty())
            rendered += "\n";
        rendered += renderMarkdown(artifact);
    }
    writeOutput(parser.option("--output"), rendered, out);
    return kExitSuccess;
}

// --- serve ------------------------------------------------------------------

/** The running socket server, for SIGINT/SIGTERM-driven shutdown.
 * SocketServer::stop() only stores an atomic flag, so it is
 * async-signal-safe. */
std::atomic<serve::SocketServer *> g_signalServer{nullptr};

void
serveSignalHandler(int)
{
    if (serve::SocketServer *server = g_signalServer.load())
        server->stop();
}

int
cmdServe(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    ArgumentParser parser("serve", "--socket <path> | --stdio");
    parser.addOption("--socket", "PATH", "",
                     "bind a Unix domain socket here and serve "
                     "concurrent newline-delimited JSON requests");
    parser.addFlag("--stdio",
                   "serve requests from stdin to stdout (sequential; "
                   "for tests and piping)");
    parser.addOption("--threads", "N", "0",
                     "warm trial-grid worker threads shared by every "
                     "request (0 = all cores)");
    parser.addOption("--cache-entries", "N", "256",
                     "result memo capacity, in full transpile reports");
    parser.addOption("--cache", "DIR", "",
                     "equivalence-library persistence directory "
                     "(loaded on first use, saved on shutdown)");
    parser.addOption("--catalog", "FILE", "",
                     "fit catalog warm-starting the root-2 library at "
                     "startup ('none' disables; default: "
                     "./FIT_CATALOG.bin when present)");
    parser.addOption("--max-queue", "N", "256",
                     "admission bound: shed misses with 'overloaded' "
                     "+ retryAfterMs once this many are in flight (0 = "
                     "unbounded)");
    // The request option's flag and check, as a server-wide cap.
    const serve::RequestOption &deadline =
        serve::requestOption(serve::Option::DeadlineMs);
    parser.addOption(deadline.flag, "N", "0",
                     "server-wide per-request compute budget; caps any "
                     "client deadlineMs (0 = none)");
    parser.addOption("--max-qubits", "N", "0",
                     "reject wider circuits with 'toolarge' (0 = no "
                     "cap)");
    parser.addOption("--max-gates", "N", "0",
                     "reject longer circuits with 'toolarge' (0 = no "
                     "cap)");
    parser.addOption("--faults", "SPEC", "",
                     "arm a deterministic fault schedule, e.g. "
                     "'seed=7,serve.read=1/11,cache.save=1/1' "
                     "(chaos testing only)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (!parser.positionals().empty())
        throw UsageError("serve takes no positional operands");

    const std::string socketPath = parser.option("--socket");
    const bool stdio = parser.flag("--stdio");
    if (socketPath.empty() == !stdio)
        throw UsageError("serve needs exactly one transport: "
                         "--socket <path> or --stdio");

    serve::EngineOptions eopts;
    eopts.threads = threadsOption(parser);
    const int entries = parser.intOption("--cache-entries");
    if (entries < 1)
        throw UsageError("--cache-entries must be >= 1");
    eopts.cacheEntries = size_t(entries);
    eopts.cacheDir = validateCacheDir(parser.option("--cache"));
    eopts.catalogPath = parser.option("--catalog");
    eopts.maxQueue = parser.intOption("--max-queue");
    if (eopts.maxQueue < 0)
        throw UsageError("--max-queue must be >= 0 (0 = unbounded)");
    serve::TranspileRequest cap;
    serve::applyFlag(cap, deadline, parser.option(deadline.flag));
    eopts.deadlineMs = cap.deadlineMs;
    eopts.maxQubits = parser.intOption("--max-qubits");
    eopts.maxGates = parser.intOption("--max-gates");
    if (eopts.maxQubits < 0 || eopts.maxGates < 0)
        throw UsageError("--max-qubits/--max-gates must be >= 0 "
                         "(0 = no cap)");

    const std::string faultSpec = parser.option("--faults");
    if (!faultSpec.empty()) {
        try {
            fault::arm(faultSpec);
        } catch (const std::invalid_argument &e) {
            throw UsageError(std::string("--faults: ") + e.what());
        }
    }
    if (fault::armed())
        err << "mirage: serve: FAULT INJECTION armed: '" << fault::spec()
            << "'\n";

    // A client that hangs up mid-response must fail that one write
    // (counted as a dropped response), not kill the server.
    std::signal(SIGPIPE, SIG_IGN);

    serve::Engine engine(eopts);
    if (!engine.catalogPath().empty()) {
        const auto &load = engine.catalogLoad();
        if (load.status == decomp::EquivalenceLibrary::CacheLoadStatus::Ok)
            err << "mirage: serve: fit catalog '" << engine.catalogPath()
                << "' loaded (" << load.entriesLoaded << " entries)\n";
        else
            err << "mirage: serve: warning: fit catalog "
                << decomp::loadStatusName(load.status) << ": "
                << load.message << "; lowering cold\n";
    }
    if (stdio) {
        const uint64_t n = serve::serveStdio(engine, std::cin, out);
        err << "mirage: serve: handled " << n << " request(s)\n";
        return kExitSuccess;
    }
    serve::SocketServer server(engine, socketPath);
    server.start();
    err << "mirage: serving on " << server.path() << " ("
        << engine.poolThreads() << " worker thread(s))\n";
    g_signalServer.store(&server);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);
    server.run();
    g_signalServer.store(nullptr);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    const serve::EngineCounters c = engine.counters();
    err << "mirage: serve: drained after " << c.requests
        << " request(s) (" << c.cacheHits << " cache hit(s), "
        << c.transpiles << " transpile(s))\n";
    return kExitSuccess;
}

// --- serve-bench ------------------------------------------------------------

/**
 * `mirage serve-bench`: the serve throughput/latency trajectory.
 * Runs the fixed two-phase synthetic workload (see serve/traffic.hh;
 * no option changes it, so every run is comparable with the baseline)
 * against an in-process engine (default) or a live server (--socket),
 * writes the artifact to --out (stdout by default; the committed
 * baseline is BENCH_serve.json), and with --check gates CI on the
 * deterministic parameters/counters exactly (timings stay
 * informational).
 */
int
cmdServeBench(const std::vector<std::string> &args, std::ostream &out,
              std::ostream &err)
{
    ArgumentParser parser("serve-bench", "[--check <baseline.json>]");
    parser.addOption("--socket", "PATH", "",
                     "drive a live `mirage serve` at this socket "
                     "instead of an in-process engine");
    parser.addOption("--out", "FILE", "-", "artifact path ('-' for stdout)");
    parser.addOption("--check", "FILE", "",
                     "baseline artifact; exit 1 if the deterministic "
                     "parameters or counters drifted");
    parser.addFlag("--chaos",
                   "robustness mode: drive a server through a seeded "
                   "fault schedule; exit 1 unless it degrades cleanly "
                   "(documented errors, bit-identical successes, no "
                   "crash)");
    parser.addOption("--chaos-dir", "DIR", "",
                     "chaos scratch directory for the in-process "
                     "server's socket/catalog/cache (default: "
                     "/tmp/mirage-chaos-<pid>)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (!parser.positionals().empty())
        throw UsageError("serve-bench takes no positional operands");

    // --- chaos mode --------------------------------------------------------
    if (parser.flag("--chaos")) {
        if (!parser.option("--check").empty())
            throw UsageError("--chaos and --check are mutually "
                             "exclusive (chaos gates on its own pass "
                             "flag)");
        serve::ChaosOptions copts;
        copts.socketPath = parser.option("--socket");
        copts.workDir = parser.option("--chaos-dir");
        // Writes happen over SocketClient; a server killed mid-chaos
        // must surface as a reconnect, not a fatal SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);

        const json::Value artifact = serve::runChaos(copts, err);
        const std::string path = parser.option("--out");
        writeOutput(path, artifact.dump(2), out);
        if (path != "-" && !path.empty())
            out << "wrote " << path << "\n";
        const json::Value *pass = artifact.find("pass");
        if (!pass || !pass->asBool()) {
            err << "mirage: serve-bench --chaos FAILED (see the "
                   "artifact's results section)\n";
            return kExitFailure;
        }
        return kExitSuccess;
    }

    // Read the baseline BEFORE writing the fresh artifact: `--out F
    // --check F` names one file, and writing first would gate the new
    // artifact against itself -- always passing.
    const std::string baselinePath = parser.option("--check");
    const json::Value baseline =
        baselinePath.empty() ? json::Value() : readJson(baselinePath);

    const json::Value artifact =
        serve::runTraffic(parser.option("--socket"), err);

    const std::string path = parser.option("--out");
    writeOutput(path, artifact.dump(2), out);
    if (path != "-" && !path.empty())
        out << "wrote " << path << "\n";

    // The check report goes to stderr, so stdout stays one artifact.
    if (!baselinePath.empty()) {
        std::string report;
        const bool ok =
            serve::checkServeArtifact(artifact, baseline, &report);
        err << report;
        if (!ok) {
            err << "mirage: serve-bench counters drifted versus '"
                << baselinePath << "'\n";
            return kExitFailure;
        }
        err << "serve-bench check OK: deterministic counters match "
            << baselinePath << "\n";
    }
    return kExitSuccess;
}

// --- generated artifacts ----------------------------------------------------

/**
 * The build/check tail shared by `mirage catalog` and `mirage coverage`.
 * `build` atomically replaces `path` with `fresh`. `check` fails with
 * `failure` if the caller already classified the committed file as bad,
 * and otherwise byte-compares it against `fresh`; a failed check leaves
 * the fresh bytes at `<path>.fresh`. `source` names what `fresh` was
 * derived from and `summary` (may be empty) is appended to success lines.
 */
int
writeOrCheckGenerated(const std::string &command, const std::string &action,
                      const std::string &path, const std::string &fresh,
                      const std::string &source, const std::string &summary,
                      std::string failure, std::ostream &out,
                      std::ostream &err)
{
    const std::string suffix = summary.empty() ? "" : " (" + summary + ")";
    if (action == "build") {
        // Atomic replace: a crash (or SIGKILL) mid-build must leave
        // either the old committed file or the new one, never a torn
        // file that poisons every later start.
        std::string werr;
        if (!writeFileAtomic(path, fresh, &werr))
            throw CliError("cannot write '" + path + "': " + werr);
        out << "wrote " << path << suffix << "\n";
        return kExitSuccess;
    }

    if (failure.empty()) {
        try {
            if (readInput(path) == fresh) {
                out << command << " check OK: " << path << " matches the "
                    << source << suffix << "\n";
                return kExitSuccess;
            }
            failure = "'" + path + "' drifted from the " + source;
        } catch (const CliError &e) {
            failure = std::string("unreadable: ") + e.what();
        }
    }
    const std::string freshPath = path + ".fresh";
    {
        std::ofstream f(freshPath);
        if (f)
            f << fresh;
    }
    err << "mirage: " << command << " check: " << failure
        << " (fresh bytes left at '" << freshPath << "'; regenerate with "
        << "'mirage " << command << " build')\n";
    return kExitFailure;
}

// --- catalog ----------------------------------------------------------------

/**
 * `mirage catalog`: maintain the committed FIT_CATALOG.bin. `build`
 * fits the full target set cold and writes the catalog; `check`
 * refits and byte-compares against the committed file (the CI gate:
 * any drift -- unreadable, malformed, or changed bytes -- fails and
 * leaves the fresh bytes next to the stale file); `stats` inspects a
 * catalog without fitting anything.
 */
int
cmdCatalog(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    ArgumentParser parser("catalog", "<build | check | stats>");
    parser.addOption("--path", "FILE", decomp::kCatalogFileName,
                     "catalog file to write (build), compare against "
                     "(check), or inspect (stats)");
    parser.addOption("--threads", "N", "1",
                     "routing worker threads while collecting the "
                     "target set (0 = all cores; the catalog bytes do "
                     "not depend on this)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().size() != 1)
        throw UsageError("catalog expects exactly one action: build, "
                         "check, or stats; see 'mirage catalog --help'");
    const std::string action = parser.positionals()[0];
    const std::string path = parser.option("--path");
    const int threads = threadsOption(parser);

    using Status = decomp::EquivalenceLibrary::CacheLoadStatus;

    if (action == "stats") {
        decomp::EquivalenceLibrary lib(decomp::kCatalogRootDegree,
                                       /*preseed=*/false);
        const auto load = lib.loadCacheFileDetailed(path);
        if (load.status != Status::Ok) {
            err << "mirage: catalog stats: "
                << decomp::loadStatusName(load.status) << ": "
                << load.message << "\n";
            return kExitFailure;
        }
        out << "catalog: " << path << "\n"
            << "entries: " << lib.cacheSize() << "\n"
            << "k histogram:\n";
        for (const auto &[k, count] : lib.kHistogram())
            out << "  k=" << k << ": " << count << "\n";
        return kExitSuccess;
    }
    if (action != "build" && action != "check")
        throw UsageError("unknown catalog action '" + action +
                         "' (expected build, check, or stats)");

    err << "mirage: fitting the catalog target set cold (Table III + "
           "mirror workloads; 15-22 s for a Release build on a "
           "4-vCPU x86-64 machine, the fits run on one core)...\n";
    auto lib = buildCatalogLibrary(threads);
    std::ostringstream fresh;
    lib->saveCache(fresh);

    // check: classify the committed file first so CI logs say WHICH
    // way it is bad (missing/unreadable vs corrupt vs drifted bytes).
    std::string failure;
    if (action == "check") {
        decomp::EquivalenceLibrary probe(decomp::kCatalogRootDegree,
                                         /*preseed=*/false);
        const auto load = probe.loadCacheFileDetailed(path);
        if (load.status != Status::Ok)
            failure = std::string(decomp::loadStatusName(load.status)) +
                      ": " + load.message;
    }
    return writeOrCheckGenerated(
        "catalog", action, path, fresh.str(), "freshly fitted target set",
        std::to_string(lib->cacheSize()) + " entries, " +
            std::to_string(lib->fitCount()) + " fits",
        failure, out, err);
}

// --- coverage ---------------------------------------------------------------

/**
 * `mirage coverage`: maintain the committed monodromy coverage tables
 * (src/monodromy/coverage_tables.cc). `build` runs the numeric
 * construction for every tabulated basis and writes the generated
 * source; `check` rebuilds and byte-compares against the committed file
 * (the CI gate), leaving the fresh source next to it on a mismatch.
 */
int
cmdCoverage(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    ArgumentParser parser("coverage", "<build | check>");
    parser.addOption("--path", "FILE", monodromy::kCoverageTablesPath,
                     "generated table source to write (build) or compare "
                     "against (check)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().size() != 1)
        throw UsageError("coverage expects exactly one action: build or "
                         "check; see 'mirage coverage --help'");
    const std::string action = parser.positionals()[0];
    if (action != "build" && action != "check")
        throw UsageError("unknown coverage action '" + action +
                         "' (expected build or check)");
    const std::string path = parser.option("--path");

    err << "mirage: building the coverage polytopes numerically...\n";
    return writeOrCheckGenerated("coverage", action, path,
                                 monodromy::generateCoverageTables(),
                                 "numeric build", "", "", out, err);
}

// --- dispatch ---------------------------------------------------------------

const char *const kVersion = "0.1.0";

std::string
usage()
{
    return "usage: mirage <command> [options]\n"
           "\n"
           "commands:\n"
           "  transpile   run the full MIRAGE pipeline on an OpenQASM 2 "
           "file\n"
           "  sweep       run a registered paper experiment, emit a "
           "JSON/CSV artifact;\n"
           "              --check gates CI on the BENCH_*.json "
           "counters\n"
           "  serve       persistent transpilation service (Unix socket "
           "or stdio)\n"
           "  serve-bench serve throughput/latency (BENCH_serve.json); "
           "--check gates CI,\n"
           "              --chaos runs the fault-tolerance gate\n"
           "  catalog     build/check/inspect the committed fit catalog "
           "(FIT_CATALOG.bin)\n"
           "  coverage    build/check the committed coverage polytope "
           "tables\n"
           "  report      render sweep artifacts as markdown tables\n"
           "  version     print the version\n"
           "  help        show this message\n"
           "\n"
           "'mirage <command> --help' documents each command;\n"
           "'mirage sweep --list' names the registered experiments.\n";
}

} // namespace

namespace {

int
dispatch(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    if (args.empty()) {
        err << usage();
        return kExitUsage;
    }
    const std::string &command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());

    try {
        if (command == "help" || command == "--help" || command == "-h") {
            out << usage();
            return kExitSuccess;
        }
        if (command == "version" || command == "--version") {
            out << "mirage " << kVersion << "\n";
            return kExitSuccess;
        }
        if (command == "transpile")
            return cmdTranspile(rest, out, err);
        if (command == "sweep")
            return cmdSweep(rest, out, err);
        if (command == "serve")
            return cmdServe(rest, out, err);
        if (command == "serve-bench")
            return cmdServeBench(rest, out, err);
        if (command == "catalog")
            return cmdCatalog(rest, out, err);
        if (command == "coverage")
            return cmdCoverage(rest, out, err);
        if (command == "report")
            return cmdReport(rest, out, err);
        err << "mirage: unknown command '" << command << "'\n\n"
            << usage();
        return kExitUsage;
    } catch (const UsageError &e) {
        err << "mirage: " << e.what() << "\n";
        return kExitUsage;
    } catch (const serve::RequestError &e) {
        // The request path shared with serve: a bad option is a usage
        // error; a bad circuit ("qasm") or misfit ("input") is not.
        err << "mirage: " << e.what() << "\n";
        return e.code() == "request" ? kExitUsage : kExitFailure;
    } catch (const std::exception &e) {
        err << "mirage: " << e.what() << "\n";
        return kExitFailure;
    }
}

} // namespace

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    const int code = dispatch(args, out, err);
    // A report that never reached its reader is a failure, whatever the
    // command computed.
    if (!out.flush()) {
        err << "mirage: cannot write output\n";
        return code == kExitSuccess ? kExitFailure : code;
    }
    return code;
}

} // namespace mirage::cli
