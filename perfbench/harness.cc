/**
 * @file
 * perfbench_harness: the in-process half of the repo benchmark.
 *
 * Subcommands (perfbench/run.py drives them; each prints one JSON
 * object as its last stdout line):
 *
 *   info                      build fingerprint (compiler, build type, cores)
 *   prepare --out DIR --names a,b
 *                             export Table III circuits to DIR/<name>.qasm
 *   check-cli --manifest F    verify `mirage transpile --lower --format
 *                             qasm` outputs against an in-process reference
 *   replay-cold --input F ... traced cold replay of one CLI request in this
 *                             fresh process (cold-cli, --trace 1); with
 *                             --untraced, its cold untraced twin
 *   suite-warm ...            warm Table III passes through transpile()
 *   serve-client ...          closed-loop load on a live `mirage serve`
 *
 * The harness links the mirage library and calls only its public
 * functions; all timing happens here, around those calls.
 */

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/generators.hh"
#include "checks.hh"
#include "circuit/qasm.hh"
#include "common/exec.hh"
#include "common/json.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "monodromy/coverage.hh"
#include "replay.hh"
#include "serve/protocol.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace mp = mirage::mirage_pass;
namespace json = mirage::json;
using mirage::circuit::Circuit;
using mirage::decomp::EquivalenceLibrary;

// --- arguments --------------------------------------------------------------

/** `--key value` pairs; a key followed by another key is a flag. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::invalid_argument("unexpected argument " + key);
            const bool has_value =
                i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
            values_.emplace(key, has_value ? std::string(argv[++i])
                                           : std::string("1"));
        }
    }

    std::string
    str(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::string
    required(const std::string &key) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            throw std::invalid_argument("missing " + key);
        return it->second;
    }

    long long
    num(const std::string &key, long long fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : std::stoll(it->second);
    }

    double
    real(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : std::stod(it->second);
    }

  private:
    std::map<std::string, std::string> values_;
};

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream in(s);
    for (std::string item; std::getline(in, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out || !(out << content))
        throw std::runtime_error("cannot write " + path);
}

/** The last stdout line: one compact JSON object. */
void
emit(const json::Value &doc)
{
    std::cout << doc.dump(0) << "\n" << std::flush;
}

/** Tell run.py that set-up is over (it times spawn -> this line). */
void
signalReady()
{
    std::cout << "ready\n" << std::flush;
}

json::Value
numbers(const std::vector<double> &values)
{
    json::Value a = json::Value::array();
    for (double v : values)
        a.push(v);
    return a;
}

json::Value
strings(const std::vector<std::string> &values)
{
    json::Value a = json::Value::array();
    for (const auto &v : values)
        a.push(v);
    return a;
}

double
cpuMsSelf()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (double(ru.ru_utime.tv_sec) + double(ru.ru_stime.tv_sec)) * 1e3 +
           (double(ru.ru_utime.tv_usec) + double(ru.ru_stime.tv_usec)) * 1e-3;
}

double
peakRssKbSelf()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss);
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

// --- workload inputs ----------------------------------------------------------

/** One benchmark input as the program receives it: QASM text. */
struct Input
{
    std::string name;
    std::string qasm;
};

/** Table III circuits by name (registry order when `names` is empty). */
std::vector<Input>
tableThree(const std::vector<std::string> &names = {})
{
    std::vector<Input> out;
    if (names.empty()) {
        for (const auto &b : mirage::bench::paperBenchmarks())
            out.push_back({b.name, mirage::circuit::toQasm(b.make())});
        return out;
    }
    for (const auto &n : names)
        out.push_back(
            {n, mirage::circuit::toQasm(mirage::bench::benchmarkByName(n)
                                            .make())});
    return out;
}

/**
 * The configuration FIT_CATALOG.bin was fitted at (table3/fig13/
 * bench-lowering): grid8x8, MirageDepth, seed 0xB3, 8/2/2 trials, VF2
 * off, root 2. Any other config misses the catalog and starts fitting.
 */
mp::TranspileOptions
catalogConfig()
{
    mp::TranspileOptions o;
    o.flow = mp::Flow::MirageDepth;
    o.rootDegree = 2;
    o.layoutTrials = 8;
    o.swapTrials = 2;
    o.forwardBackwardPasses = 2;
    o.tryVf2 = false;
    o.seed = 0xB3;
    o.lowerToBasis = true;
    return o;
}
constexpr const char *kCatalogTopology = "grid8x8";

/** A root-2 library warm-started from the catalog; throws on failure. */
std::unique_ptr<EquivalenceLibrary>
loadCatalog(const std::string &path, int root_degree = 2)
{
    auto lib = std::make_unique<EquivalenceLibrary>(root_degree,
                                                    /*preseed=*/false);
    auto res = lib->loadCacheFileDetailed(path);
    if (res.status != EquivalenceLibrary::CacheLoadStatus::Ok)
        throw std::runtime_error("fit catalog " + path +
                                 " did not load: " + res.message);
    return lib;
}

/**
 * Options of a `mirage transpile --lower` call as run.py makes it;
 * `get(key, fallback)` reads one numeric flag, defaults as in the CLI.
 */
template <class Get>
mp::TranspileOptions
cliOptions(Get get)
{
    mp::TranspileOptions o;
    o.layoutTrials = int(get("trials", 8));
    o.swapTrials = int(get("swap-trials", 4));
    o.forwardBackwardPasses = int(get("fwd-bwd", 2));
    o.seed = uint64_t(get("seed", 20240229));
    o.tryVf2 = get("vf2", 1) != 0;
    o.threads = 1;
    o.lowerToBasis = true;
    return o;
}

mp::TranspileOptions
cliOptions(const Args &a)
{
    return cliOptions([&](const std::string &key, long long fallback) {
        return a.num("--" + key, fallback);
    });
}

mp::TranspileOptions
cliOptions(const json::Value &opts)
{
    return cliOptions([&](const std::string &key, long long fallback) {
        const json::Value *v = opts.find(key);
        return v ? (long long)v->asNumber() : fallback;
    });
}

/** Sums of the deterministic per-input counters of a workload. */
struct Counters
{
    double depthPulses = 0;
    double totalPulses = 0;
    double blocks = 0;
    double heuristicEvals = 0;
    double stallSteps = 0;
    double extSetBuilds = 0;
    double mirrorsAccepted = 0;
    double mirrorCandidates = 0;

    void
    add(const ReplayRecord &r)
    {
        blocks += r.consolidate.blocksEmitted;
        addResult(r.result);
    }

    void
    addResult(const mp::TranspileResult &res)
    {
        depthPulses += res.metrics.depthPulses;
        totalPulses += res.metrics.totalPulses;
        heuristicEvals += double(res.routingCounters.heuristicEvals);
        stallSteps += double(res.routingCounters.stallSteps);
        extSetBuilds += double(res.routingCounters.extSetBuilds);
        mirrorsAccepted += res.mirrorsAccepted;
        mirrorCandidates += res.mirrorCandidates;
    }
};

/**
 * Per-op stage samples of a traced run, folded into the per-layer
 * metrics. Times are means per op; counts and ratios cover every
 * traced op.
 */
struct LayerStats
{
    std::vector<double> parse, unroll, consolidate, vf2, route, routeSerial,
        costModel, metrics, translate, transpile, unattributed, overhead;
    uint64_t coordHits = 0, coordMisses = 0, vf2Found = 0;
    uint64_t newFits = 0, fitEvaluations = 0, cacheHits = 0, blocks = 0;
    double routeMsTotal = 0, routeSerialMsTotal = 0;
    int threads = 1;

    /** Fold one replayed op and its untraced transpile() twin. */
    void
    add(const ReplayRecord &r, double parse_ms, double transpile_ms)
    {
        parse.push_back(parse_ms);
        unroll.push_back(r.stage("circuit.unroll"));
        consolidate.push_back(r.stage("circuit.consolidate"));
        if (r.vf2Ran)
            vf2.push_back(r.stage("layout.vf2"));
        costModel.push_back(r.stage("monodromy.cost_model"));
        metrics.push_back(r.stage("mirage.metrics"));
        if (r.result.loweredToBasis)
            translate.push_back(r.stage("decomp.translate"));
        if (!r.result.usedVf2) {
            route.push_back(r.stage("router.route"));
            routeMsTotal += r.stage("router.route");
        }
        transpile.push_back(transpile_ms);
        unattributed.push_back(transpile_ms - r.stageSumMs());
        overhead.push_back(r.wallMs - transpile_ms);
        coordHits += r.consolidate.coordCacheHits;
        coordMisses += r.consolidate.coordCacheMisses;
        vf2Found += r.vf2Found ? 1 : 0;
        const auto &ts = r.result.translateStats;
        newFits += uint64_t(ts.newFits);
        fitEvaluations += ts.fitEvaluations;
        cacheHits += uint64_t(ts.cacheHits);
        blocks += uint64_t(ts.blocksTranslated);
    }

    /** Time the op's routing again, serially (skipped on the VF2 path). */
    void
    addSerial(const ReplayRecord &r, const mirage::topology::CouplingMap &m,
              const mp::TranspileOptions &opts)
    {
        if (r.result.usedVf2)
            return;
        const auto cost_model =
            mirage::monodromy::makeRootIswapCostModel(opts.rootDegree);
        mp::TranspileOptions serial = opts;
        serial.threads = 1;
        serial.pool = nullptr;
        const auto topts = trialOptionsFor(serial, cost_model);
        const auto t0 = Clock::now();
        mirage::router::routeWithTrials(r.consolidated, m, topts);
        const double ms = msSince(t0);
        routeSerial.push_back(ms);
        routeSerialMsTotal += ms;
    }

    void
    fill(json::Value &layers, const Counters &c) const
    {
        layers.set("circuit.parse_ms", mean(parse));
        layers.set("circuit.unroll_ms", mean(unroll));
        layers.set("circuit.consolidate_ms", mean(consolidate));
        layers.set("circuit.blocks", c.blocks);
        layers.set("circuit.coord_cache_hit_ratio",
                   coordHits + coordMisses
                       ? double(coordHits) / double(coordHits + coordMisses)
                       : 0.0);
        layers.set("monodromy.cost_model_ms", mean(costModel));
        layers.set("layout.vf2_ms", mean(vf2));
        layers.set("layout.vf2_found", double(vf2Found));
        layers.set("router.route_ms", mean(route));
        layers.set("router.route_serial_ms", mean(routeSerial));
        layers.set("router.parallel_efficiency",
                   routeMsTotal > 0
                       ? routeSerialMsTotal / (routeMsTotal * threads)
                       : 0.0);
        layers.set("router.heuristic_evals", c.heuristicEvals);
        layers.set("router.stall_steps", c.stallSteps);
        layers.set("router.ext_set_builds", c.extSetBuilds);
        layers.set("router.mirror_accept_ratio",
                   c.mirrorCandidates > 0
                       ? c.mirrorsAccepted / c.mirrorCandidates
                       : 0.0);
        layers.set("mirage.transpile_ms", mean(transpile));
        layers.set("mirage.metrics_ms", mean(metrics));
        layers.set("mirage.unattributed_ms", mean(unattributed));
        layers.set("decomp.translate_ms", mean(translate));
        layers.set("decomp.new_fits", double(newFits));
        layers.set("decomp.fit_evaluations", double(fitEvaluations));
        layers.set("decomp.cache_hit_ratio",
                   blocks ? double(cacheHits) / double(blocks) : 0.0);
        layers.set("trace.overhead_ms", mean(overhead));
    }
};

void
writeSpans(const std::string &path, const Trace &trace)
{
    if (!path.empty())
        writeFile(path, trace.toJson().dump(0));
}

// --- info / prepare -----------------------------------------------------------

int
cmdInfo()
{
    json::Value v = json::Value::object();
    v.set("compiler", std::string("g++ ") + __VERSION__);
    v.set("build_type", PERFBENCH_BUILD_TYPE);
    v.set("nproc", mirage::exec::defaultThreads());
    emit(v);
    return 0;
}

int
cmdPrepare(const Args &a)
{
    const std::string dir = a.required("--out");
    json::Value files = json::Value::array();
    for (const auto &in : tableThree(splitList(a.required("--names")))) {
        const std::string path = dir + "/" + in.name + ".qasm";
        writeFile(path, in.qasm);
        files.push(path);
    }
    json::Value v = json::Value::object();
    v.set("files", std::move(files));
    emit(v);
    return 0;
}

// --- cold-cli: output check and traced cold replay ---------------------------

int
cmdCheckCli(const Args &a)
{
    const json::Value manifest = json::parse(readFile(a.required("--manifest")));
    const auto lib = loadCatalog(a.required("--catalog"));
    json::Value results = json::Value::array();
    for (size_t i = 0; i < manifest.size(); ++i) {
        const json::Value &entry = manifest.at(i);
        json::Value r = json::Value::object();
        Tally tally;
        tally.run([&]() -> std::string {
            const Circuit input =
                mirage::circuit::fromQasm(readFile(entry["input"].asString()));
            const auto topo = mirage::topology::CouplingMap::parseSpec(
                entry["topology"].asString(), input.numQubits());
            mp::TranspileOptions opts = cliOptions(entry["options"]);
            opts.equivalenceLibrary = lib.get();
            const auto ref = mp::transpile(input, topo, opts);
            r.set("depth_pulses", ref.metrics.depthPulses);
            r.set("total_pulses", ref.metrics.totalPulses);
            if (auto why = checkLoweredResult(ref, topo, opts.rootDegree);
                !why.empty())
                return "reference: " + why;
            // Byte-identical to a reference that passed every check.
            if (readFile(entry["output"].asString()) !=
                mirage::circuit::toQasm(ref.lowered))
                return "CLI output differs from the in-process transpile()";
            return "";
        });
        r.set("ok", tally.failed() == 0);
        r.set("reason", tally.reasons().empty() ? "" : tally.reasons()[0]);
        results.push(std::move(r));
    }
    json::Value v = json::Value::object();
    v.set("results", std::move(results));
    emit(v);
    return 0;
}

int
cmdReplayCold(const Args &a)
{
    Trace trace;
    const int64_t op = 0;
    mp::TranspileOptions opts = cliOptions(a);
    std::string text;
    Circuit input;
    std::optional<mirage::topology::CouplingMap> topo;
    std::unique_ptr<EquivalenceLibrary> lib;
    json::Value stages = json::Value::object();
    auto span = [&](const char *name, auto &&body) {
        Trace::Scope s(trace, name, op);
        const auto t0 = Clock::now();
        body();
        const double ms = msSince(t0);
        stages.set(name, ms);
        return ms;
    };
    double setup_ms = 0;
    setup_ms += span("cli.read", [&] { text = readFile(a.required("--input")); });
    const double parse_ms =
        span("circuit.parse", [&] { input = mirage::circuit::fromQasm(text); });
    setup_ms += parse_ms;
    setup_ms += span("topology.build", [&] {
        topo.emplace(mirage::topology::CouplingMap::parseSpec(
            a.required("--topology"), input.numQubits()));
    });
    // First, so the coverage build is not hidden inside the library or
    // cost-model constructors.
    setup_ms += span("monodromy.coverage_build", [&] {
        mirage::monodromy::coverageForRootIswap(opts.rootDegree);
    });
    setup_ms += span("decomp.catalog_load", [&] {
        lib = loadCatalog(a.required("--catalog"), opts.rootDegree);
    });
    opts.equivalenceLibrary = lib.get();
    if (a.num("--untraced", 0)) {
        // The untraced twin: transpile() after the same set-up, in a
        // fresh process of its own, so it is exactly as cold as the
        // traced replay (coordinate cache, first-touched code paths).
        const auto t0 = Clock::now();
        mp::transpile(input, *topo, opts);
        json::Value v = json::Value::object();
        v.set("transpile_ms", msSince(t0));
        emit(v);
        return 0;
    }
    const ReplayRecord rec = replayTranspile(input, *topo, opts, trace, op);
    for (size_t i = 0; i < replayStages().size(); ++i)
        stages.set(replayStages()[i], rec.stageMs[i]);

    // Replay fidelity against transpile() here, now warm; its time is
    // taken from the cold twin (--untraced-ms) instead.
    const auto ref = mp::transpile(input, *topo, opts);
    const double transpile_ms = std::stod(a.required("--untraced-ms"));

    Tally tally;
    tally.run([&] { return compareOutputs(rec.result, ref); });
    tally.run([&] {
        return checkLoweredResult(rec.result, *topo, opts.rootDegree);
    });

    LayerStats ls;
    ls.add(rec, parse_ms, transpile_ms);
    ls.addSerial(rec, *topo, opts);
    Counters c;
    c.add(rec);
    json::Value layers = json::Value::object();
    ls.fill(layers, c);
    writeSpans(a.str("--spans"), trace);

    json::Value v = json::Value::object();
    v.set("stages", std::move(stages));
    v.set("stage_sum_ms", setup_ms + rec.stageSumMs());
    v.set("layers", std::move(layers));
    v.set("coord_hits", rec.consolidate.coordCacheHits);
    v.set("coord_misses", rec.consolidate.coordCacheMisses);
    v.set("attempted", tally.attempted());
    v.set("failed", tally.failed());
    v.set("reasons", strings(tally.reasons()));
    emit(v);
    return 0;
}

// --- suite-warm -----------------------------------------------------------------

/** The committed per-circuit `blocks` column of BENCH_lowering.json. */
std::map<std::string, int>
baselineBlocks(const std::string &path)
{
    std::map<std::string, int> out;
    const json::Value doc = json::parse(readFile(path));
    const json::Value &rows = doc["rows"];
    for (size_t i = 0; i < rows.size(); ++i)
        out[rows.at(i)["name"].asString()] = int(rows.at(i)["blocks"].asInt());
    return out;
}

int
cmdSuiteWarm(const Args &a)
{
    const bool traced = a.num("--trace", 0) != 0;
    const double seconds = a.real("--seconds", 10);
    Trace trace;
    json::Value layers = json::Value::object();
    auto setupSpan = [&](const char *name, const char *metric, auto &&body) {
        Trace::Scope s(trace, name, -1);
        const auto t0 = Clock::now();
        body();
        layers.set(metric, msSince(t0));
    };

    // Set-up: inputs, worker pool, topology, cost model, catalog library.
    // The circuits come straight from the generators, as the catalog was
    // fitted: QASM text keeps 12 significant digits, and two of the
    // fifteen re-parsed circuits would miss the catalog.
    const std::vector<Input> inputs = tableThree();
    std::vector<Circuit> circuits;
    for (const auto &b : mirage::bench::paperBenchmarks())
        circuits.push_back(b.make());
    mirage::exec::ThreadPool pool(0); // one worker per core
    std::optional<mirage::topology::CouplingMap> topo;
    setupSpan("topology.build", "topology.build_ms", [&] {
        topo.emplace(mirage::topology::CouplingMap::parseSpec(kCatalogTopology,
                                                             0));
    });
    setupSpan("monodromy.coverage_build", "monodromy.coverage_build_ms",
              [&] { mirage::monodromy::coverageForRootIswap(2); });
    std::unique_ptr<EquivalenceLibrary> lib;
    setupSpan("decomp.catalog_load", "decomp.catalog_load_ms",
              [&] { lib = loadCatalog(a.required("--catalog")); });
    mp::TranspileOptions opts = catalogConfig();
    opts.pool = &pool;
    opts.threads = pool.numThreads();
    opts.equivalenceLibrary = lib.get();
    signalReady();
    if (a.num("--setup-only", 0))
        return 0;

    // Guards, on one untimed pass: the catalog covers every circuit
    // (zero new fits) and the translated block counts match the
    // committed BENCH_lowering.json, so this is still the catalog config.
    const auto blocks = baselineBlocks(a.required("--baseline"));
    Tally guards;
    std::vector<mp::TranspileResult> reference;
    Counters counters;
    for (size_t i = 0; i < circuits.size(); ++i) {
        reference.push_back(mp::transpile(circuits[i], *topo, opts));
        const auto &r = reference.back();
        counters.addResult(r);
        guards.run([&]() -> std::string {
            const auto &ts = r.translateStats;
            if (ts.newFits != 0)
                return inputs[i].name + ": " + std::to_string(ts.newFits) +
                       " new fits outside the catalog";
            auto it = blocks.find(inputs[i].name);
            if (it == blocks.end() || it->second != ts.blocksTranslated)
                return inputs[i].name + ": " +
                       std::to_string(ts.blocksTranslated) +
                       " blocks translated, BENCH_lowering.json says " +
                       (it == blocks.end() ? "nothing"
                                           : std::to_string(it->second));
            return checkLoweredResult(r, *topo, 2);
        });
    }

    // One op = one transpile() call; passes visit the 15 circuits in a
    // seeded order until the time is up.
    std::mt19937_64 rng(uint64_t(a.num("--seed", 1)));
    auto shuffled = [&] {
        std::vector<size_t> order(circuits.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[size_t(rng() % i)]);
        return order;
    };
    auto checkOp = [&](size_t i, const mp::TranspileResult &r) {
        if (r.translateStats.newFits != 0)
            return std::string("new fits outside the catalog");
        if (!Circuit::bitIdentical(r.routed, reference[i].routed) ||
            !Circuit::bitIdentical(r.lowered, reference[i].lowered))
            return inputs[i].name + " output differs from the first pass";
        return checkLoweredResult(r, *topo, 2);
    };

    Tally tally;
    std::vector<double> samples;
    json::Value v = json::Value::object();
    const auto start = Clock::now();
    const double cpu0 = cpuMsSelf();
    if (!traced) {
        while (msSince(start) < seconds * 1e3) {
            for (size_t i : shuffled()) {
                const auto t0 = Clock::now();
                mp::TranspileResult r;
                std::string why;
                try {
                    r = mp::transpile(circuits[i], *topo, opts);
                } catch (const std::exception &e) {
                    why = std::string("threw: ") + e.what();
                }
                samples.push_back(msSince(t0));
                tally.record(why.empty() ? checkOp(i, r) : why);
            }
        }
    } else {
        LayerStats ls;
        ls.threads = pool.numThreads();
        Counters traced_counters;
        std::vector<bool> counted(circuits.size(), false);
        int64_t op = 0;
        do {
            for (size_t i : shuffled()) {
                tally.run([&]() -> std::string {
                    // Parse time of the circuit's QASM form; the replay
                    // itself starts from the generated circuit, as
                    // transpile() does.
                    const auto p0 = Clock::now();
                    {
                        Trace::Scope s(trace, "circuit.parse", op);
                        mirage::circuit::fromQasm(inputs[i].qasm);
                    }
                    const double parse_ms = msSince(p0);
                    const ReplayRecord rec =
                        replayTranspile(circuits[i], *topo, opts, trace, op);
                    const auto t0 = Clock::now();
                    const auto r = mp::transpile(circuits[i], *topo, opts);
                    const double transpile_ms = msSince(t0);
                    samples.push_back(transpile_ms);
                    ls.add(rec, parse_ms, transpile_ms);
                    ls.addSerial(rec, *topo, opts);
                    if (!counted[i]) {
                        traced_counters.add(rec);
                        counted[i] = true;
                    }
                    if (auto why = compareOutputs(rec.result, r); !why.empty())
                        return inputs[i].name + ": " + why;
                    return checkOp(i, r);
                });
                ++op;
            }
        } while (msSince(start) < seconds * 1e3);
        ls.fill(layers, traced_counters);
        writeSpans(a.str("--spans"), trace);
    }
    const double wall_s = msSince(start) / 1e3;
    v.set("samples_ms", numbers(samples));
    v.set("wall_s", wall_s);
    v.set("cpu_ms", cpuMsSelf() - cpu0);
    v.set("peak_rss_kb", peakRssKbSelf());
    v.set("attempted", tally.attempted());
    v.set("failed", tally.failed());
    v.set("reasons", strings(tally.reasons()));
    v.set("guards_failed", guards.failed());
    v.set("guard_reasons", strings(guards.reasons()));
    v.set("depth_pulses", counters.depthPulses);
    v.set("total_pulses", counters.totalPulses);
    if (traced)
        v.set("layers", std::move(layers));
    emit(v);
    return 0;
}

// --- serve-mix client ---------------------------------------------------------

/** One blocking newline-delimited JSON connection to `mirage serve`. */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
            0) {
            ::close(fd_);
            throw std::runtime_error("cannot connect to " + path);
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send one request line and read its one response line. */
    std::string
    roundTrip(const std::string &line)
    {
        std::string out = line + "\n";
        for (size_t sent = 0; sent < out.size();) {
            ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send failed");
            sent += size_t(n);
        }
        for (;;) {
            size_t eol = buf_.find('\n');
            if (eol != std::string::npos) {
                std::string resp = buf_.substr(0, eol);
                buf_.erase(0, eol + 1);
                return resp;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                throw std::runtime_error("connection closed by the server");
            buf_.append(chunk, size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** utime+stime of a process in ms, from /proc/<pid>/stat. */
double
cpuMsOf(long pid)
{
    const std::string stat = readFile("/proc/" + std::to_string(pid) + "/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    std::istringstream in(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
        if (i == 14)
            utime = std::stod(field);
        if (i == 15)
            stime = std::stod(field);
    }
    return (utime + stime) * 1e3 / double(sysconf(_SC_CLK_TCK));
}

/** VmHWM of a process in kB. */
double
peakRssKbOf(long pid)
{
    std::istringstream in(readFile("/proc/" + std::to_string(pid) + "/status"));
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    return 0;
}

/** Hot keys: lowered at the catalog config, so every repeat is a hit. */
const std::vector<std::string> kHotSet = {"qft_n18", "bv_n30", "seca_n11",
                                          "sat_n11"};
/**
 * Miss circuits: routed only, VF2 on, a fresh seed each request. Six of
 * similar cost, at 16 layout trials (missOptions), hold a 30 s run of
 * two clients near 6k requests -- inside [2k, 10k) with margin either
 * way -- so the tail is p99.5: a miss queued behind another, common
 * enough to measure steadily, not p99.9, which one scheduling hiccup
 * moves. wstate_n27's line interaction graph embeds by VF2 without
 * routing.
 */
const std::vector<std::string> kMissSet = {
    "wstate_n27",     "qft_n18",          "sat_n11",
    "multiplier_n15", "qftentangled_n16", "ae_n16",
    "qpeexact_n16"};
constexpr double kHitShare = 0.6;

/** Generous budget on misses: exercises the field, never expires. */
constexpr double kMissDeadlineMs = 60000;

/**
 * One transpile request line. topology, format and deadlineMs go inside
 * "options": the server rejects them at the top level.
 */
std::string
requestLine(const Input &in, uint64_t id, const mp::TranspileOptions &o,
            const char *format, double deadline_ms)
{
    json::Value opts = json::Value::object();
    opts.set("topology", kCatalogTopology);
    opts.set("format", format);
    opts.set("flow", mirage::serve::flowName(o.flow));
    opts.set("trials", o.layoutTrials);
    opts.set("swapTrials", o.swapTrials);
    opts.set("fwdBwd", o.forwardBackwardPasses);
    opts.set("seed", o.seed);
    opts.set("vf2", o.tryVf2);
    opts.set("root", o.rootDegree);
    opts.set("lower", o.lowerToBasis);
    if (deadline_ms > 0)
        opts.set("deadlineMs", deadline_ms);
    json::Value req = json::Value::object();
    req.set("op", "transpile");
    req.set("id", id);
    req.set("name", in.name);
    req.set("qasm", in.qasm);
    req.set("options", std::move(opts));
    return req.dump(0);
}

/** Seeded request stream of one client. */
class RequestStream
{
  public:
    RequestStream(const std::vector<Input> &hot, const std::vector<Input> &miss,
                  uint64_t seed, int client)
        : hot_(hot), miss_(miss),
          rng_(seed * 0x9E3779B97F4A7C15ULL + uint64_t(client) + 1),
          seedBase_(((seed & 0xFFFF) << 32) | (uint64_t(client) << 24))
    {
    }

    struct Request
    {
        bool hot = false;
        size_t index = 0;
        uint64_t seed = 0; ///< routing seed of a miss
        std::string line;
    };

    Request
    next()
    {
        Request r;
        r.hot = double(rng_() >> 11) * 0x1.0p-53 < kHitShare;
        if (r.hot) {
            r.index = size_t(rng_() % hot_.size());
            r.line = hotLine(hot_[r.index], id_++);
        } else {
            r.index = size_t(rng_() % miss_.size());
            r.seed = seedBase_ + ++count_;
            r.line = requestLine(miss_[r.index], id_++, missOptions(r.seed),
                                 "qasm", kMissDeadlineMs);
        }
        return r;
    }

    static std::string
    hotLine(const Input &in, uint64_t id)
    {
        return requestLine(in, id, catalogConfig(), "json", 0);
    }

    static mp::TranspileOptions
    missOptions(uint64_t seed)
    {
        mp::TranspileOptions o;
        o.flow = mp::Flow::MirageDepth;
        o.layoutTrials = 16;
        o.swapTrials = 2;
        o.forwardBackwardPasses = 1;
        o.seed = seed;
        o.tryVf2 = true;
        o.lowerToBasis = false;
        return o;
    }

  private:
    const std::vector<Input> &hot_;
    const std::vector<Input> &miss_;
    std::mt19937_64 rng_;
    uint64_t seedBase_;
    uint64_t id_ = 0;
    uint64_t count_ = 0;
};

/** The part of a served line after `"report":`, or "" when absent. */
std::string
reportPart(const std::string &response)
{
    const size_t at = response.find("\"report\":");
    return at == std::string::npos ? "" : response.substr(at);
}

/** Error code of a failed response, or "" when ok. */
std::string
responseError(const json::Value &doc)
{
    const json::Value *ok = doc.find("ok");
    if (ok && ok->isBool() && ok->asBool())
        return "";
    const json::Value *err = doc.find("error");
    const json::Value *code = err ? err->find("code") : nullptr;
    const json::Value *msg = err ? err->find("message") : nullptr;
    return "error " + (code && code->isString() ? code->asString() : "?") +
           ": " + (msg && msg->isString() ? msg->asString() : "");
}

/** Check a miss response: ok, and its routed circuit on grid edges. */
std::string
checkMissResponse(const std::string &line,
                  const mirage::topology::CouplingMap &grid,
                  std::string *qasm = nullptr)
{
    const json::Value doc = json::parse(line);
    if (auto why = responseError(doc); !why.empty())
        return why;
    const json::Value *q = doc.find("qasm");
    if (!q || !q->isString())
        return "miss response carries no qasm";
    if (qasm)
        *qasm = q->asString();
    return checkEdges(mirage::circuit::fromQasm(q->asString()), grid);
}

/** The server's stats response. */
json::Value
serverStats(Connection &conn)
{
    return json::parse(conn.roundTrip("{\"op\":\"stats\",\"id\":\"stats\"}"));
}

/**
 * Closed-loop clients. With the server's pool at nproc - kClients
 * threads (run.py), clients and pool together fill the cores.
 */
constexpr int kClients = 2;

int
cmdServeClient(const Args &a)
{
    const bool traced = a.num("--trace", 0) != 0;
    const double seconds = a.real("--seconds", 10);
    const std::string socket = a.required("--socket");
    const long server_pid = long(a.num("--server-pid", 0));
    const uint64_t seed = uint64_t(a.num("--seed", 1));

    const std::vector<Input> hot = tableThree(kHotSet);
    const std::vector<Input> miss = tableThree(kMissSet);
    const auto grid =
        mirage::topology::CouplingMap::parseSpec(kCatalogTopology, 0);

    // Warm-up, untimed: the first lowered request of each hot key is a
    // miss that must fit nothing (catalog guard), and its report must be
    // byte-identical to the in-process transpile() of the same request.
    Trace trace;
    json::Value layers = json::Value::object();
    Tally guards;
    double depth_pulses = 0, total_pulses = 0;
    std::vector<std::string> expected(hot.size());
    std::unique_ptr<EquivalenceLibrary> lib;
    {
        const auto t0 = Clock::now();
        mirage::monodromy::coverageForRootIswap(2);
        layers.set("monodromy.coverage_build_ms", msSince(t0));
        const auto t1 = Clock::now();
        lib = loadCatalog(a.required("--catalog"));
        layers.set("decomp.catalog_load_ms", msSince(t1));
        const auto t2 = Clock::now();
        mirage::topology::CouplingMap::parseSpec(kCatalogTopology, 0);
        layers.set("topology.build_ms", msSince(t2));
    }
    Connection warm(socket);
    // In-process references run on as many threads as the server's pool.
    mirage::exec::ThreadPool pool(
        int(serverStats(warm)["poolThreads"].asNumber()));
    for (size_t h = 0; h < hot.size(); ++h) {
        guards.run([&]() -> std::string {
            const std::string line = warm.roundTrip(
                RequestStream::hotLine(hot[h], 1000000 + h));
            const json::Value doc = json::parse(line);
            if (auto why = responseError(doc); !why.empty())
                return hot[h].name + ": " + why;
            const json::Value &report = doc["report"];
            const double fits = report["lowered"]["newFits"].asNumber();
            if (fits != 0)
                return hot[h].name + ": first lowered request made " +
                       json::formatNumber(fits) + " new fits";
            const Circuit input = mirage::circuit::fromQasm(hot[h].qasm);
            mp::TranspileOptions opts = catalogConfig();
            opts.equivalenceLibrary = lib.get();
            opts.pool = &pool;
            const auto ref = mp::transpile(input, grid, opts);
            if (auto why = checkLoweredResult(ref, grid, 2); !why.empty())
                return hot[h].name + ": reference " + why;
            if (mirage::serve::transpileReportJson(hot[h].name, input, grid,
                                                   opts, ref)
                    .dump(0) != report.dump(0))
                return hot[h].name + ": served report differs from the "
                                     "in-process transpile()";
            depth_pulses += report["result"]["metrics"]["depthPulses"]
                                .asNumber();
            total_pulses += report["result"]["metrics"]["totalPulses"]
                                .asNumber();
            expected[h] = reportPart(line);
            return "";
        });
    }

    // Timed closed loop: kClients threads, one connection each, each
    // sending its next request when the previous response has arrived.
    // Miss responses are kept and checked after the loop: parsing their
    // circuits inline would slow the clients down.
    struct ClientResult
    {
        std::vector<double> hitMs, missMs;
        std::vector<std::string> missLines;
        Tally tally;
        double endMs = 0;
    };
    auto closedLoop = [&](double run_seconds, std::vector<ClientResult> &out) {
        out.assign(size_t(kClients), {});
        std::vector<std::thread> threads;
        const auto start = Clock::now() + std::chrono::milliseconds(20);
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                ClientResult &res = out[size_t(c)];
                RequestStream stream(hot, miss, seed, c);
                try {
                    Connection conn(socket);
                    std::this_thread::sleep_until(start);
                    while (msSince(start) < run_seconds * 1e3) {
                        const auto req = stream.next();
                        const auto t0 = Clock::now();
                        std::string line;
                        try {
                            line = conn.roundTrip(req.line);
                        } catch (const std::exception &e) {
                            res.tally.record(std::string("transport: ") +
                                             e.what());
                            break;
                        }
                        const double ms = msSince(t0);
                        if (!req.hot) {
                            res.missMs.push_back(ms);
                            res.missLines.push_back(std::move(line));
                            continue;
                        }
                        res.hitMs.push_back(ms);
                        res.tally.run([&]() -> std::string {
                            if (reportPart(line) != expected[req.index] ||
                                expected[req.index].empty())
                                return responseError(json::parse(line)) +
                                       " hot report differs from the "
                                       "validated one";
                            return "";
                        });
                    }
                } catch (const std::exception &e) {
                    res.tally.record(std::string("client: ") + e.what());
                }
                res.endMs = msSince(start);
            });
        }
        for (auto &t : threads)
            t.join();
    };

    json::Value v = json::Value::object();
    std::vector<ClientResult> results;
    const json::Value stats0 = serverStats(warm)["counters"];
    const double cpu0 = server_pid ? cpuMsOf(server_pid) : 0;
    const double loop_seconds = traced ? seconds / 2 : seconds;
    closedLoop(loop_seconds, results);
    const double cpu1 = server_pid ? cpuMsOf(server_pid) : 0;
    const json::Value stats1 = serverStats(warm)["counters"];

    Tally tally;
    std::vector<double> samples, hit_ms, miss_ms;
    double wall_ms = 0;
    for (const auto &r : results) {
        tally.merge(r.tally);
        for (const auto &line : r.missLines)
            tally.run([&] { return checkMissResponse(line, grid); });
        hit_ms.insert(hit_ms.end(), r.hitMs.begin(), r.hitMs.end());
        miss_ms.insert(miss_ms.end(), r.missMs.begin(), r.missMs.end());
        wall_ms = std::max(wall_ms, r.endMs);
    }
    samples = hit_ms;
    samples.insert(samples.end(), miss_ms.begin(), miss_ms.end());

    if (traced) {
        auto delta = [&](const char *key) {
            return stats1[key].asNumber() - stats0[key].asNumber();
        };
        const double lookups = delta("cacheHits") + delta("cacheMisses");
        layers.set("serve.hit_ratio",
                   lookups > 0 ? delta("cacheHits") / lookups : 0.0);
        // Misses carry a fresh seed (part of the memo and batch keys) and
        // a deadline (solo dispatch), so on this mix these two read 0 and
        // 1. The warm-up sends one request at a time, so the server's
        // largest batch is the timed phase's.
        layers.set("serve.coalesced", delta("coalesced"));
        layers.set("serve.max_batch", stats1["maxBatchSize"].asNumber());

        // Traced phase: one connection, each request's round trip timed
        // next to its in-process replay and untraced transpile().
        LayerStats ls;
        ls.threads = pool.numThreads();
        Counters counters;
        std::vector<double> hit_rt, miss_rt, overhead, report_ms;
        RequestStream stream(hot, miss, seed, kClients);
        Connection conn(socket);
        const auto start = Clock::now();
        int64_t op = 0;
        do {
            const auto req = stream.next();
            tally.run([&]() -> std::string {
                const auto t0 = Clock::now();
                const std::string line = conn.roundTrip(req.line);
                const double rt = msSince(t0);
                if (req.hot) {
                    hit_rt.push_back(rt);
                    if (reportPart(line) != expected[req.index])
                        return "hot report differs from the validated one";
                    // What a hit costs the server beyond the lookup: the
                    // envelope around the cached report, dumped.
                    const json::Value doc = json::parse(line);
                    const auto r0 = Clock::now();
                    json::Value env = mirage::serve::okEnvelope(json::Value(op));
                    env.set("kind", "transpile");
                    env.set("cache", doc["cache"]);
                    env.set("report", doc["report"]);
                    const std::string dumped = env.dump(0);
                    report_ms.push_back(msSince(r0));
                    return dumped.empty() ? "empty report" : "";
                }
                miss_rt.push_back(rt);
                std::string served;
                if (auto why = checkMissResponse(line, grid, &served);
                    !why.empty())
                    return why;
                mp::TranspileOptions opts =
                    RequestStream::missOptions(req.seed);
                opts.pool = &pool;
                opts.threads = pool.numThreads();
                const auto p0 = Clock::now();
                Circuit parsed;
                {
                    Trace::Scope s(trace, "circuit.parse", op);
                    parsed = mirage::circuit::fromQasm(miss[req.index].qasm);
                }
                const double parse_ms = msSince(p0);
                const ReplayRecord rec =
                    replayTranspile(parsed, grid, opts, trace, op);
                const auto t1 = Clock::now();
                const auto ref = mp::transpile(parsed, grid, opts);
                const double transpile_ms = msSince(t1);
                ls.add(rec, parse_ms, transpile_ms);
                ls.addSerial(rec, grid, opts);
                counters.add(rec);
                overhead.push_back(rt - transpile_ms);
                if (auto why = compareOutputs(rec.result, ref); !why.empty())
                    return why;
                if (served != mirage::circuit::toQasm(ref.routed))
                    return "served circuit differs from the in-process "
                           "transpile()";
                return "";
            });
            ++op;
        } while (msSince(start) < seconds / 2 * 1e3 || miss_rt.empty() ||
                 hit_rt.empty());
        ls.fill(layers, counters);
        layers.set("serve.hit_ms", mean(hit_rt));
        layers.set("serve.miss_ms", mean(miss_rt));
        layers.set("serve.miss_overhead_ms", mean(overhead));
        layers.set("serve.report_json_ms", mean(report_ms));
        writeSpans(a.str("--spans"), trace);
    }

    v.set("samples_ms", numbers(samples));
    v.set("hit_samples_ms", numbers(hit_ms));
    v.set("miss_samples_ms", numbers(miss_ms));
    v.set("wall_s", wall_ms / 1e3);
    v.set("cpu_ms", cpu1 - cpu0);
    v.set("peak_rss_kb", server_pid ? peakRssKbOf(server_pid) : 0.0);
    v.set("attempted", tally.attempted());
    v.set("failed", tally.failed());
    v.set("reasons", strings(tally.reasons()));
    v.set("guards_failed", guards.failed());
    v.set("guard_reasons", strings(guards.reasons()));
    v.set("depth_pulses", depth_pulses);
    v.set("total_pulses", total_pulses);
    if (traced)
        v.set("layers", std::move(layers));
    emit(v);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: perfbench_harness <info|prepare|check-cli|"
                     "replay-cold|suite-warm|serve-client> [--key value]...\n";
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args args(argc, argv, 2);
        if (cmd == "info")
            return cmdInfo();
        if (cmd == "prepare")
            return cmdPrepare(args);
        if (cmd == "check-cli")
            return cmdCheckCli(args);
        if (cmd == "replay-cold")
            return cmdReplayCold(args);
        if (cmd == "suite-warm")
            return cmdSuiteWarm(args);
        if (cmd == "serve-client")
            return cmdServeClient(args);
        std::cerr << "perfbench_harness: unknown subcommand " << cmd << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness " << cmd << ": " << e.what() << "\n";
        return 1;
    }
}
