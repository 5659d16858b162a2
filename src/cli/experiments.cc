/**
 * @file
 * Experiment registry implementation: one entry per reproducible paper
 * artifact, each returning a versioned JSON payload, plus the shared
 * renderers (markdown, CSV) and the schema validator. The aggregation
 * logic (geomean depth over seeds, baseline-vs-MIRAGE sweeps) and the
 * Table III and mirror workloads live here once, behind `mirage sweep`,
 * `mirage report` and `mirage catalog`.
 */

#include "cli/experiments.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>

#include "bench_circuits/generators.hh"
#include "bench_circuits/mirror.hh"
#include "circuit/consolidate.hh"
#include "common/exec.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "decomp/catalog.hh"
#include "decomp/equivalence.hh"
#include "layout/layout.hh"
#include "mirage/pipeline.hh"
#include "monodromy/cost_model.hh"
#include "monodromy/scores.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"
#include "weyl/catalog.hh"

namespace mirage::cli {

namespace {

/** `k` with every "experiment default" slot filled in. */
SweepKnobs
resolve(SweepKnobs k, int seeds, int trials, int swapTrials, int fwdBwd,
        int mcIterations = 300)
{
    auto fill = [](int &slot, int value) {
        if (slot < 0)
            slot = value;
    };
    fill(k.seeds, seeds);
    fill(k.layoutTrials, trials);
    fill(k.swapTrials, swapTrials);
    fill(k.fwdBwd, fwdBwd);
    fill(k.mcIterations, mcIterations);
    return k;
}

/** `n` suite entries clipped to --limit (-1 = all). */
size_t
limited(const SweepKnobs &k, size_t n)
{
    return k.suiteLimit >= 0 ? std::min(size_t(k.suiteLimit), n) : n;
}

json::Value
parametersJson(const SweepKnobs &k)
{
    json::Value p = json::Value::object();
    p.set("seeds", k.seeds);
    p.set("layoutTrials", k.layoutTrials);
    p.set("swapTrials", k.swapTrials);
    p.set("forwardBackwardPasses", k.fwdBwd);
    p.set("threads", k.threads);
    if (!k.cacheDir.empty())
        p.set("cacheDir", k.cacheDir);
    return p;
}

/** Column descriptor: key into the row objects + table label. */
json::Value
column(const char *key, const char *label, int digits = -1,
       bool sci = false)
{
    json::Value c = json::Value::object();
    c.set("key", key);
    c.set("label", label);
    if (digits >= 0)
        c.set("digits", digits);
    if (sci)
        c.set("sci", true);
    return c;
}

/**
 * An experiment's payload in artifact key order: parameters, columns,
 * rows, then the summary and notes when given.
 */
json::Value
payload(json::Value parameters, std::vector<json::Value> columns,
        json::Value rows, json::Value summary = {},
        const char *notes = nullptr)
{
    json::Value out = json::Value::object();
    out.set("parameters", std::move(parameters));
    json::Value cols = json::Value::array();
    for (json::Value &c : columns)
        cols.push(std::move(c));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    if (!summary.isNull())
        out.set("summary", std::move(summary));
    if (notes)
        out.set("notes", notes);
    return out;
}

mirage_pass::TranspileOptions
sweepOptions(mirage_pass::Flow flow, uint64_t seed, const SweepKnobs &k)
{
    mirage_pass::TranspileOptions o;
    o.flow = flow;
    o.layoutTrials = k.layoutTrials;
    o.swapTrials = k.swapTrials;
    o.forwardBackwardPasses = k.fwdBwd;
    // The paper's suite is selected to need routing; skip the VF2
    // short-circuit so linear-interaction circuits are routed too.
    o.tryVf2 = false;
    o.seed = seed;
    o.threads = k.threads;
    return o;
}

/** `o`, also lowering to pulses through `library`. */
mirage_pass::TranspileOptions
lowerThrough(mirage_pass::TranspileOptions o,
             decomp::EquivalenceLibrary *library)
{
    o.lowerToBasis = true;
    o.equivalenceLibrary = library;
    return o;
}

/** Routing seed of instance `i` in the multi-instance sweeps. */
uint64_t
instanceSeed(int i)
{
    return 0x9000 + 131 * uint64_t(i);
}

/**
 * The Table III evaluation config, which FIT_CATALOG.bin is fitted
 * from: the first --limit paper circuits on an 8x8 grid, MirageDepth
 * flow, one seed, trials 8/2/2 and one fixed routing seed, unless the
 * user overrides the knobs. table3, bench-lowering and bench (with its
 * own seed) run it; buildCatalogLibrary fits it.
 */
struct TableThree
{
    SweepKnobs knobs;
    topology::CouplingMap grid;
    std::vector<bench::BenchmarkInfo> suite;
    mirage_pass::TranspileOptions options;

    std::vector<circuit::Circuit> circuits() const
    {
        std::vector<circuit::Circuit> out;
        for (const auto &b : suite)
            out.push_back(b.make());
        return out;
    }
};

TableThree
tableThree(const SweepKnobs &user)
{
    const auto &paper = bench::paperBenchmarks();
    TableThree t{resolve(user, 1, 8, 2, 2),
                 topology::CouplingMap::grid(8, 8),
                 std::vector<bench::BenchmarkInfo>(
                     paper.begin(),
                     paper.begin() + limited(user, paper.size())),
                 {}};
    t.options = sweepOptions(mirage_pass::Flow::MirageDepth, 0xB3, t.knobs);
    return t;
}

/** One mirror circuit of a mirror workload and its routing seed. */
struct MirrorInstance
{
    int width;
    int index; ///< instance number within its width
    bench::MirrorCircuit mirror;
    uint64_t routeSeed;
};

/**
 * The mirror-rb / mirror-qv workload, which FIT_CATALOG.bin also
 * covers: on heavy-hex 57, 3-layer RB at widths {8, 10, 14} or depth-4
 * QV at widths {8, 10, 12} (the first --limit widths), `seeds`
 * instances per width, trials 4/2/1 unless the user overrides them.
 */
struct MirrorWorkload
{
    SweepKnobs knobs;
    topology::CouplingMap device;
    size_t widths;
    std::vector<MirrorInstance> instances; ///< width-major

    /** The lowered MIRAGE run of `inst`: what the catalog covers. */
    mirage_pass::TranspileOptions
    lowered(const MirrorInstance &inst,
            decomp::EquivalenceLibrary *library) const
    {
        return lowerThrough(sweepOptions(mirage_pass::Flow::MirageDepth,
                                         inst.routeSeed, knobs),
                            library);
    }
};

MirrorWorkload
mirrorWorkload(const SweepKnobs &user, bool qv)
{
    MirrorWorkload m{resolve(user, 1, 4, 2, 1),
                     topology::CouplingMap::heavyHex57(), 0, {}};
    std::vector<int> widths =
        qv ? std::vector<int>{8, 10, 12} : std::vector<int>{8, 10, 14};
    widths.resize(limited(user, widths.size()));
    m.widths = widths.size();
    for (int w : widths) {
        for (int i = 0; i < m.knobs.seeds; ++i) {
            const uint64_t gen_seed = 0xA11CE + 977 * uint64_t(i);
            m.instances.push_back({w, i,
                                   qv ? bench::mirrorQv(w, 4, gen_seed)
                                      : bench::mirrorRb(w, 3, gen_seed),
                                   instanceSeed(i)});
        }
    }
    return m;
}

/** Aggregated transpile statistics over several seeds (geometric mean
 * for depth as in the paper, arithmetic for counters). */
struct SweepStats
{
    double depth = 0;
    double depthPulses = 0;
    double totalPulses = 0;
    double swaps = 0;
    double mirrorRate = 0;
};

SweepStats
runSweep(const std::string &bench_name,
         const topology::CouplingMap &coupling, mirage_pass::Flow flow,
         const SweepKnobs &knobs, int fixed_aggression = -1)
{
    SweepStats s;
    double log_depth = 0;
    for (int i = 0; i < knobs.seeds; ++i) {
        auto circ = bench::benchmarkByName(bench_name).make();
        auto opts = sweepOptions(flow, instanceSeed(i), knobs);
        opts.fixedAggression = fixed_aggression;
        auto res = mirage_pass::transpile(circ, coupling, opts);
        log_depth += std::log(std::max(res.metrics.depth, 1e-9));
        s.depthPulses += res.metrics.depthPulses;
        s.totalPulses += res.metrics.totalPulses;
        s.swaps += res.swapsAdded;
        s.mirrorRate += res.mirrorAcceptRate();
    }
    s.depth = std::exp(log_depth / knobs.seeds);
    s.depthPulses /= knobs.seeds;
    s.totalPulses /= knobs.seeds;
    s.swaps /= knobs.seeds;
    s.mirrorRate /= knobs.seeds;
    return s;
}

double
pct(double base, double now)
{
    return base > 0 ? 100.0 * (base - now) / base : 0.0;
}

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Record catalog usage in an artifact's summary object. */
void
setCatalogSummary(json::Value &summary, const decomp::CatalogLoad &catalog)
{
    summary.set("catalogPath", catalog.path);
    summary.set("catalogLoaded", catalog.loaded());
    summary.set("catalogEntries", uint64_t(catalog.result.entriesLoaded));
    if (!catalog.result.message.empty())
        summary.set("catalogError", catalog.result.message);
}

// --- experiments ------------------------------------------------------------

/** Figs. 3-4: Haar-weighted coverage per k of CNOT and the iSWAP roots,
 * standard vs mirror-extended. */
json::Value
runFig3And4(const SweepKnobs &)
{
    json::Value rows = json::Value::array();
    json::Value k_max = json::Value::object();
    for (const monodromy::CoverageSet *cs :
         {&monodromy::coverageForCnot(), &monodromy::coverageForRootIswap(2),
          &monodromy::coverageForRootIswap(3),
          &monodromy::coverageForRootIswap(4)}) {
        for (int k = 1; k <= cs->kMax(); ++k) {
            json::Value row = json::Value::object();
            row.set("basis", cs->basis().name);
            row.set("k", k);
            row.set("coverage", 100.0 * cs->haarFractionAt(k));
            row.set("mirrorCoverage", 100.0 * cs->mirrorHaarFractionAt(k));
            rows.push(std::move(row));
        }
        k_max.set(cs->basis().name, cs->kMax());
    }

    json::Value summary = json::Value::object();
    summary.set("kMax", std::move(k_max));
    return payload(json::Value::object(),
                   {column("basis", "basis"), column("k", "k"),
                    column("coverage", "coverage(%)", 2),
                    column("mirrorCoverage", "mirror coverage(%)", 2)},
                   std::move(rows), std::move(summary),
                   "Haar-weighted volume of the monodromy polytope P_k (k "
                   "basis applications), in percent; kMax is the k at which "
                   "a basis covers the whole Weyl chamber.");
}

/** Fig. 5: Monte-Carlo convergence of the 4th-root-iSWAP Haar score. */
json::Value
runFig5(const SweepKnobs &userKnobs)
{
    const int iters = resolve(userKnobs, 1, 0, 0, 0).mcIterations;
    const monodromy::CoverageSet &cs = monodromy::coverageForRootIswap(4);

    // Log-spaced checkpoints like the paper's x-axis; the counter is
    // 64-bit so doubling past 2^30 cannot overflow.
    std::vector<int> checkpoints;
    for (int64_t c = 1; c <= iters; c *= 2)
        checkpoints.push_back(int(c));
    if (checkpoints.back() != iters)
        checkpoints.push_back(iters);

    struct Strategy
    {
        const char *key, *label;
        bool mirrors, approximate;
    };
    const Strategy strategies[] = {
        {"exact", "exact", false, false},
        {"approximate", "approximate", false, true},
        {"exactMirrors", "exact+mirrors", true, false},
        {"approxMirrors", "approx+mirrors", true, true},
    };

    json::Value summary = json::Value::object();
    summary.set("exactReference", monodromy::haarScoreExact(cs, false).score);
    summary.set("exactMirrorsReference",
                monodromy::haarScoreExact(cs, true).score);
    std::vector<json::Value> cols = {column("iteration", "iteration")};
    std::vector<json::Value> rows(checkpoints.size(), json::Value::object());
    for (size_t i = 0; i < checkpoints.size(); ++i)
        rows[i].set("iteration", checkpoints[i]);
    for (const Strategy &s : strategies) {
        monodromy::MonteCarloOptions opts;
        opts.iterations = iters;
        opts.mirrors = s.mirrors;
        opts.approximate = s.approximate;
        size_t next = 0;
        opts.progress = [&](int it, double running) {
            if (checkpoints[next] == it)
                rows[next++].set(s.key, running);
        };
        const monodromy::HaarScore final_score =
            monodromy::haarScoreMonteCarlo(cs, opts);
        rows.back().set(s.key, final_score.score);
        json::Value f = json::Value::object();
        f.set("score", final_score.score);
        f.set("fidelity", final_score.fidelity);
        summary.set(s.key, std::move(f));
        cols.push_back(column(s.key, s.label, 4));
    }

    json::Value params = json::Value::object();
    params.set("mcIterations", iters);
    json::Value row_array = json::Value::array();
    for (json::Value &row : rows)
        row_array.push(std::move(row));
    return payload(std::move(params), std::move(cols), std::move(row_array),
                   std::move(summary),
                   "Running average of the Haar score (expected cost in "
                   "iSWAP units) under Algorithm 1, exact or approximate "
                   "decomposition, with and without mirrors; the last row "
                   "is the final score. The exact references are polytope "
                   "integrals.");
}

/** Fig. 6: the CPHASE family and its pSWAP mirrors vs sqrt(iSWAP). */
json::Value
runFig6(const SweepKnobs &)
{
    const monodromy::CostModel cm = monodromy::makeRootIswapCostModel(2);
    json::Value rows = json::Value::array();
    for (int i = 1; i <= 8; ++i) {
        const double phi = linalg::kPi * i / 8.0;
        const weyl::Coord cp = weyl::coordCP(phi);
        const weyl::Coord ps = weyl::mirrorCoord(cp);
        json::Value row = json::Value::object();
        row.set("phiOverPi", phi / linalg::kPi);
        row.set("cpCoords", cp.toString());
        row.set("cpCost", cm.costOf(cp));
        row.set("cpK", cm.kFor(cp));
        row.set("pswapCoords", ps.toString());
        row.set("pswapCost", cm.costOf(ps));
        row.set("pswapK", cm.kFor(ps));
        rows.push(std::move(row));
    }

    return payload(json::Value::object(),
                   {column("phiOverPi", "phi/pi", 3),
                    column("cpCoords", "CP coords"),
                    column("cpCost", "cost", 2), column("cpK", "k"),
                    column("pswapCoords", "pSWAP coords"),
                    column("pswapCost", "cost", 2), column("pswapK", "k")},
                   std::move(rows), json::Value(),
                   "Costs in iSWAP units against the sqrt(iSWAP) coverage. "
                   "CNOT (phi = pi) and its mirror iSWAP both cost k=2; "
                   "fractional CPHASEs mirror into k=3 pSWAPs, favored only "
                   "when absorbing a SWAP.");
}

/** Fig. 8: TwoLocal(full, 4q) on a 4-qubit line, baseline vs MIRAGE. */
json::Value
runFig8(const SweepKnobs &userKnobs)
{
    const SweepKnobs knobs = resolve(userKnobs, 1, 8, 4, 2);
    auto circ = bench::twoLocalFull(4, 1, 7);
    auto line = topology::CouplingMap::line(4);

    json::Value rows = json::Value::array();
    json::Value gates = json::Value::array();
    for (auto [label, flow] :
         {std::pair{"Qiskit-baseline", mirage_pass::Flow::SabreBaseline},
          std::pair{"MIRAGE", mirage_pass::Flow::MirageDepth}}) {
        auto res = mirage_pass::transpile(circ, line,
                                          sweepOptions(flow, 1, knobs));
        json::Value row = json::Value::object();
        row.set("flow", label);
        row.set("depthPulses", res.metrics.depthPulses);
        row.set("swaps", res.metrics.swapGates);
        row.set("mirrors", res.mirrorsAccepted);
        row.set("depth", res.metrics.depth);
        rows.push(std::move(row));
        if (flow == mirage_pass::Flow::MirageDepth) {
            for (const auto &g : res.routed.gates()) {
                if (!g.isTwoQubit())
                    continue;
                gates.push(g.name() + "(" + std::to_string(g.qubits[0]) +
                           "," + std::to_string(g.qubits[1]) + ")" +
                           (g.mirrored ? " [mirror]" : ""));
            }
        }
    }

    json::Value summary = json::Value::object();
    summary.set("mirageTwoQubitGates", std::move(gates));
    return payload(parametersJson(knobs),
                   {column("flow", "flow"),
                    column("depthPulses", "pulses(sqiSW)", 1),
                    column("swaps", "swaps"), column("mirrors", "mirrors"),
                    column("depth", "depth(iSWAP)", 2)},
                   std::move(rows), std::move(summary));
}

/**
 * Fig. 9: local minima in greedy routing. The Fig. 8 ansatz is routed
 * from the identity layout (its first gate needs no SWAP) 64 times with
 * cycling aggression and distinct seeds; the tie-breaks land in
 * different minima, which is why MIRAGE post-selects across trials.
 */
json::Value
runFig9(const SweepKnobs &)
{
    const int trials = 64;
    const auto consolidated =
        circuit::consolidateBlocks(bench::twoLocalFull(4, 1, 7));
    const auto line = topology::CouplingMap::line(4);
    const auto cost = monodromy::makeRootIswapCostModel(2);
    const router::Aggression cycle[] = {
        router::Aggression::Lower, router::Aggression::Equal,
        router::Aggression::Always, router::Aggression::None};

    std::map<int, int> histogram; // depth pulses -> trials
    double best = 1e30, worst = 0;
    for (int t = 0; t < trials; ++t) {
        router::PassOptions opts;
        opts.costModel = &cost;
        opts.aggression = cycle[t % 4];
        opts.seed = 101 + 7 * uint64_t(t);
        const auto res =
            router::routePass(consolidated, line, layout::Layout(4), opts);
        const double pulses =
            mirage_pass::computeMetrics(res.routed, cost).depthPulses;
        ++histogram[int(pulses + 0.5)];
        best = std::min(best, pulses);
        worst = std::max(worst, pulses);
    }

    json::Value rows = json::Value::array();
    for (auto [pulses, count] : histogram) {
        json::Value row = json::Value::object();
        row.set("depthPulses", pulses);
        row.set("trials", count);
        rows.push(std::move(row));
    }
    json::Value summary = json::Value::object();
    summary.set("best", best);
    summary.set("worst", worst);
    summary.set("trials", trials);
    return payload(json::Value::object(),
                   {column("depthPulses", "depth(pulses)"),
                    column("trials", "trials")},
                   std::move(rows), std::move(summary),
                   "Depth-pulse histogram over 64 routing passes of one "
                   "input from one layout; post-selection across trials "
                   "keeps the best route.");
}

/** Fig. 10: fixed aggression levels vs baseline on four circuits. */
json::Value
runFig10(const SweepKnobs &userKnobs)
{
    const SweepKnobs knobs = resolve(userKnobs, 3, 12, 4, 2);
    auto grid = topology::CouplingMap::grid(6, 6);
    const char *names[] = {"wstate_n27", "bigadder_n18", "qft_n18",
                           "bv_n30"};

    json::Value rows = json::Value::array();
    for (const char *name : names) {
        json::Value row = json::Value::object();
        row.set("circuit", name);
        row.set("qiskit",
                runSweep(name, grid, mirage_pass::Flow::SabreBaseline,
                         knobs)
                    .depth);
        for (int a = 0; a <= 3; ++a) {
            std::string key("a");
            key.push_back(char('0' + a));
            row.set(key,
                    runSweep(name, grid, mirage_pass::Flow::MirageDepth,
                             knobs, a)
                        .depth);
        }
        row.set("mix",
                runSweep(name, grid, mirage_pass::Flow::MirageDepth, knobs)
                    .depth);
        rows.push(std::move(row));
    }

    std::vector<json::Value> cols = {column("circuit", "circuit"),
                                     column("qiskit", "qiskit", 1)};
    for (int a = 0; a <= 3; ++a) {
        std::string key("a");
        key.push_back(char('0' + a));
        cols.push_back(column(key.c_str(), key.c_str(), 1));
    }
    cols.push_back(column("mix", "mix", 1));
    return payload(parametersJson(knobs), std::move(cols), std::move(rows),
                   json::Value(),
                   "Average depth in iSWAP units on a 6x6 grid. No single "
                   "aggression level wins everywhere, motivating the mixed "
                   "5/45/45/5 distribution.");
}

const std::vector<const char *> &
suiteCircuits()
{
    static const std::vector<const char *> names = {
        "qec9xz_n17",       "seca_n11",       "knn_n25",
        "swap_test_n25",    "qram_n20",       "qft_n18",
        "qftentangled_n16", "ae_n16",         "bigadder_n18",
        "qpeexact_n16",     "multiplier_n15", "portfolioqaoa_n16",
        "sat_n11",
    };
    return names;
}

/** Fig. 11: SWAP-count vs estimated-depth post-selection. */
json::Value
runFig11(const SweepKnobs &userKnobs)
{
    const SweepKnobs knobs = resolve(userKnobs, 3, 12, 4, 2);
    auto grid = topology::CouplingMap::grid(6, 6);

    json::Value rows = json::Value::array();
    double sum_swap_red = 0, sum_depth_red = 0, sum_gate_ratio = 0;
    int count = 0;
    for (const char *name : suiteCircuits()) {
        auto qiskit =
            runSweep(name, grid, mirage_pass::Flow::SabreBaseline, knobs);
        auto mswaps =
            runSweep(name, grid, mirage_pass::Flow::MirageSwaps, knobs);
        auto mdepth =
            runSweep(name, grid, mirage_pass::Flow::MirageDepth, knobs);
        double ds = pct(qiskit.depth, mswaps.depth);
        double dd = pct(qiskit.depth, mdepth.depth);
        json::Value row = json::Value::object();
        row.set("circuit", name);
        row.set("qiskit", qiskit.depth);
        row.set("mirageSwaps", mswaps.depth);
        row.set("mirageDepth", mdepth.depth);
        row.set("swapSelRed", ds);
        row.set("depthSelRed", dd);
        rows.push(std::move(row));
        sum_swap_red += ds;
        sum_depth_red += dd;
        sum_gate_ratio += pct(qiskit.totalPulses, mdepth.totalPulses);
        ++count;
    }

    json::Value summary = json::Value::object();
    summary.set("avgDepthReductionSwapSel", sum_swap_red / count);
    summary.set("avgDepthReductionDepthSel", sum_depth_red / count);
    summary.set("avgExtraFromDepthSel",
                (sum_depth_red - sum_swap_red) / count);
    summary.set("avgTotalPulseChange", sum_gate_ratio / count);
    return payload(parametersJson(knobs),
                   {column("circuit", "circuit"),
                    column("qiskit", "qiskit", 1),
                    column("mirageSwaps", "mirage-swaps", 1),
                    column("mirageDepth", "mirage-depth", 1),
                    column("swapSelRed", "dS(%)", 1),
                    column("depthSelRed", "dD(%)", 1)},
                   std::move(rows), std::move(summary),
                   "Average depth in iSWAP units on a 6x6 grid; dS/dD are "
                   "the reductions of MIRAGE post-selected on SWAPs/depth "
                   "vs the baseline.");
}

/** Fig. 12: end-to-end comparison on heavy-hex 57Q and the 6x6 grid. */
json::Value
runFig12(const SweepKnobs &userKnobs)
{
    const SweepKnobs knobs = resolve(userKnobs, 3, 12, 4, 2);

    json::Value rows = json::Value::array();
    json::Value summary = json::Value::object();
    for (const auto &topo : {topology::CouplingMap::heavyHex57(),
                             topology::CouplingMap::grid(6, 6)}) {
        double sum_d = 0, sum_g = 0, sum_s = 0;
        double wsum_d = 0, wsum_g = 0, wsum_s = 0;
        double wtot_d = 0, wtot_g = 0, wtot_s = 0;
        int count = 0;
        for (const char *name : suiteCircuits()) {
            auto q = runSweep(name, topo,
                              mirage_pass::Flow::SabreBaseline, knobs);
            auto m = runSweep(name, topo, mirage_pass::Flow::MirageDepth,
                              knobs);
            double dp = pct(q.depth, m.depth);
            double gp = pct(q.totalPulses, m.totalPulses);
            double sp = pct(q.swaps, m.swaps);
            json::Value row = json::Value::object();
            row.set("topology", topo.name());
            row.set("circuit", name);
            row.set("qiskitDepth", q.depth);
            row.set("mirageDepth", m.depth);
            row.set("depthRed", dp);
            row.set("qiskitPulses", q.totalPulses);
            row.set("miragePulses", m.totalPulses);
            row.set("pulseRed", gp);
            row.set("qiskitSwaps", q.swaps);
            row.set("mirageSwaps", m.swaps);
            row.set("mirrorRate", 100.0 * m.mirrorRate);
            rows.push(std::move(row));
            sum_d += dp;
            sum_g += gp;
            sum_s += sp;
            wsum_d += dp * q.depth;
            wtot_d += q.depth;
            wsum_g += gp * q.totalPulses;
            wtot_g += q.totalPulses;
            wsum_s += sp * q.swaps;
            wtot_s += q.swaps;
            ++count;
        }
        json::Value t = json::Value::object();
        t.set("avgDepthReduction", sum_d / count);
        t.set("avgPulseReduction", sum_g / count);
        t.set("avgSwapReduction", sum_s / count);
        t.set("weightedDepthReduction", wsum_d / wtot_d);
        t.set("weightedPulseReduction", wsum_g / wtot_g);
        t.set("weightedSwapReduction", wsum_s / wtot_s);
        summary.set(topo.name(), std::move(t));
    }

    return payload(parametersJson(knobs),
                   {column("topology", "topology"),
                    column("circuit", "circuit"),
                    column("qiskitDepth", "Q.depth", 1),
                    column("mirageDepth", "M.depth", 1),
                    column("depthRed", "d%", 1),
                    column("qiskitPulses", "Q.pulse", 0),
                    column("miragePulses", "M.pulse", 0),
                    column("pulseRed", "g%", 1),
                    column("qiskitSwaps", "Q.swap", 1),
                    column("mirageSwaps", "M.swap", 1),
                    column("mirrorRate", "mirror%", 1)},
                   std::move(rows), std::move(summary));
}

/** Tables I/II: Haar scores, exact or Monte-Carlo approximate. */
json::Value
runHaarTable(const SweepKnobs &userKnobs, bool approximate)
{
    const SweepKnobs knobs = resolve(userKnobs, 1, 0, 0, 0);

    json::Value params = json::Value::object();
    if (approximate)
        params.set("mcIterations", knobs.mcIterations);

    json::Value rows = json::Value::array();
    for (int n : {2, 3, 4}) {
        const monodromy::CoverageSet &cs =
            monodromy::coverageForRootIswap(n);
        monodromy::HaarScore plain, mirror;
        if (approximate) {
            monodromy::MonteCarloOptions opts;
            opts.iterations = knobs.mcIterations;
            opts.approximate = true;
            opts.mirrors = false;
            plain = monodromy::haarScoreMonteCarlo(cs, opts);
            opts.mirrors = true;
            opts.seed ^= 0x77;
            mirror = monodromy::haarScoreMonteCarlo(cs, opts);
        } else {
            plain = monodromy::haarScoreExact(cs, false);
            mirror = monodromy::haarScoreExact(cs, true);
        }
        json::Value row = json::Value::object();
        row.set("basis", std::to_string(n) + "-rt iSWAP");
        row.set("haar", plain.score);
        row.set("fidelity", plain.fidelity);
        row.set("mirrorHaar", mirror.score);
        row.set("mirrorFidelity", mirror.fidelity);
        rows.push(std::move(row));
    }

    return payload(std::move(params),
                   {column("basis", "basis"), column("haar", "haar", 4),
                    column("fidelity", "fidelity", 4),
                    column("mirrorHaar", "mirror haar", 4),
                    column("mirrorFidelity", "mirror fid", 4)},
                   std::move(rows), json::Value(),
                   approximate ? "Algorithm 1 Monte Carlo with approximate "
                                 "decomposition accepted when it improves "
                                 "total fidelity."
                               : "Exact decomposition scores by polytope "
                                 "integration.");
}

/** Table III: suite inventory + measured sqrt(iSWAP) pulse counts. */
json::Value
runTable3(const SweepKnobs &userKnobs)
{
    const TableThree t = tableThree(userKnobs);
    const SweepKnobs &knobs = t.knobs;
    const auto &suite = t.suite;
    const std::vector<circuit::Circuit> circuits = t.circuits();

    decomp::LibraryReport report;
    auto lib = decomp::openLibrary(t.options.rootDegree, knobs.catalogPath,
                                   knobs.cacheDir, &report);
    warnIf(report.cacheWarning);
    auto opts = lowerThrough(t.options, lib.get());
    std::optional<exec::ThreadPool> pool;
    if (knobs.threads != 1)
        opts.pool = &pool.emplace(knobs.threads);

    std::vector<mirage_pass::TranspileResult> results;
    auto t0 = std::chrono::steady_clock::now();
    for (const auto &c : circuits)
        results.push_back(mirage_pass::transpile(c, t.grid, opts));
    double elapsed_ms = millisSince(t0);
    warnIf(decomp::saveLibrary(*lib, knobs.cacheDir));

    json::Value rows = json::Value::array();
    bool all_equal = true;
    double worst_inf = 0;
    int new_fits = 0;
    uint64_t fit_evals = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &b = suite[i];
        const auto &r = results[i];
        json::Value row = json::Value::object();
        row.set("name", b.name);
        row.set("class", b.klass);
        row.set("qubits", b.qubits);
        row.set("paperTwoQ", b.paperTwoQ);
        row.set("rawTwoQ", circuits[i].twoQubitGateCount());
        row.set("cxEquiv", bench::cxEquivalentCount(circuits[i]));
        row.set("estPulses", r.metrics.totalPulses);
        row.set("measPulses", r.loweredMetrics.totalPulses);
        row.set("measDepthPulses", r.loweredMetrics.depthPulses);
        row.set("fits", r.translateStats.newFits);
        row.set("worstInfidelity", r.translateStats.worstInfidelity);
        rows.push(std::move(row));
        all_equal = all_equal &&
                    r.metrics.totalPulses == r.loweredMetrics.totalPulses;
        worst_inf =
            std::max(worst_inf, r.translateStats.worstInfidelity);
        new_fits += r.translateStats.newFits;
        fit_evals += r.translateStats.fitEvaluations;
    }

    json::Value summary = json::Value::object();
    summary.set("measuredEqualsEstimated", all_equal);
    summary.set("worstInfidelity", worst_inf);
    summary.set("elapsedMs", elapsed_ms);
    summary.set("fits", uint64_t(lib->fitCount()));
    summary.set("newFits", new_fits);
    summary.set("fitEvaluations", fit_evals);
    summary.set("cachedDecompositions", uint64_t(lib->cacheSize()));
    setCatalogSummary(summary, report.catalog);
    return payload(parametersJson(knobs),
                   {column("name", "name"), column("class", "class"),
                    column("qubits", "qubits"),
                    column("paperTwoQ", "paper 2Q"),
                    column("rawTwoQ", "raw 2Q"),
                    column("cxEquiv", "cx-equiv"),
                    column("estPulses", "est.pulse", 0),
                    column("measPulses", "meas.pulse", 0),
                    column("measDepthPulses", "meas.depth", 0),
                    column("fits", "fits"),
                    column("worstInfidelity", "worst-inf", -1, true)},
                   std::move(rows), std::move(summary),
                   "Routed on an 8x8 grid with MirageDepth flow, then "
                   "lowered to sqrt(iSWAP) pulses over one shared "
                   "equivalence library. est.pulse is the polytope "
                   "estimate, meas.pulse the count measured on the emitted "
                   "circuit; the paper counts QASMBench entries natively "
                   "(raw 2Q) and MQTBench entries after CX decomposition "
                   "(cx-equiv).");
}

/**
 * bench-lowering: the lowering cold-start perf trajectory. Routes the
 * Table III suite once, then translates every routed circuit twice --
 * cold (fresh preseeded library, every block numerically fitted) and
 * warm (library restored from the committed FIT_CATALOG.bin; falls
 * back to a second pass over the cold library when no catalog
 * resolves). Wall times are recorded but never gated; the
 * deterministic counters (fits, fitEvaluations, warmNewFits,
 * warmFitEvaluations -- pure functions of the circuits and the
 * FMA-free fit pipeline) are gated by `mirage sweep --experiment
 * bench-lowering --check BENCH_lowering.json` in CI, so the repo can
 * never silently go cold again.
 */
json::Value
runBenchLowering(const SweepKnobs &userKnobs)
{
    const TableThree t = tableThree(userKnobs);
    const auto &suite = t.suite;

    // Route once (table3's exact config); lowering is then isolated
    // from routing cost and measured per circuit, sequentially, so the
    // counters cannot be split across threads.
    std::vector<mirage_pass::TranspileResult> routed;
    for (const auto &c : t.circuits())
        routed.push_back(mirage_pass::transpile(c, t.grid, t.options));

    decomp::EquivalenceLibrary cold(2);
    std::vector<decomp::TranslateStats> cold_stats(routed.size());
    std::vector<double> cold_ms(routed.size());
    for (size_t i = 0; i < routed.size(); ++i) {
        auto t0 = std::chrono::steady_clock::now();
        cold.translate(routed[i].routed, &cold_stats[i]);
        cold_ms[i] = millisSince(t0);
    }

    decomp::CatalogLoad catalog;
    auto warm_lib = decomp::loadCatalog(2, t.knobs.catalogPath, &catalog);
    decomp::EquivalenceLibrary &warm = warm_lib ? *warm_lib : cold;

    std::vector<decomp::TranslateStats> warm_stats(routed.size());
    std::vector<double> warm_ms(routed.size());
    for (size_t i = 0; i < routed.size(); ++i) {
        auto t0 = std::chrono::steady_clock::now();
        warm.translate(routed[i].routed, &warm_stats[i]);
        warm_ms[i] = millisSince(t0);
    }

    json::Value rows = json::Value::array();
    double total_cold = 0, total_warm = 0;
    int warm_new_fits = 0;
    for (size_t i = 0; i < routed.size(); ++i) {
        json::Value row = json::Value::object();
        row.set("name", suite[i].name);
        row.set("qubits", suite[i].qubits);
        row.set("blocks", cold_stats[i].blocksTranslated);
        row.set("fits", cold_stats[i].newFits);
        row.set("fitEvaluations", cold_stats[i].fitEvaluations);
        row.set("coldMs", cold_ms[i]);
        row.set("warmNewFits", warm_stats[i].newFits);
        row.set("warmFitEvaluations", warm_stats[i].fitEvaluations);
        row.set("warmMs", warm_ms[i]);
        rows.push(std::move(row));
        total_cold += cold_ms[i];
        total_warm += warm_ms[i];
        warm_new_fits += warm_stats[i].newFits;
    }

    json::Value params = parametersJson(t.knobs);
    params.set("circuits", uint64_t(routed.size()));
    json::Value summary = json::Value::object();
    summary.set("loweringColdMs", total_cold);
    summary.set("loweringWarmMs", total_warm);
    summary.set("warmSpeedup", total_warm > 0 ? total_cold / total_warm : 0.0);
    summary.set("warmNewFits", warm_new_fits);
    summary.set("totalFits", uint64_t(cold.fitCount()));
    summary.set("totalFitEvaluations", uint64_t(cold.fitEvaluations()));
    setCatalogSummary(summary, catalog);
    return payload(std::move(params),
                   {column("name", "name"), column("qubits", "qubits"),
                    column("blocks", "blocks"), column("fits", "fits"),
                    column("fitEvaluations", "fit-evals"),
                    column("coldMs", "cold(ms)", 1),
                    column("warmNewFits", "warm-fits"),
                    column("warmFitEvaluations", "warm-evals"),
                    column("warmMs", "warm(ms)", 1)},
                   std::move(rows), std::move(summary),
                   "Table III suite routed once on an 8x8 grid, then "
                   "lowered cold (fresh library, every block fitted) vs "
                   "warm (library restored from the committed "
                   "FIT_CATALOG.bin). Wall times are machine-dependent and "
                   "never gated; fits/fitEvaluations/warmNewFits are "
                   "deterministic and CI-gated. warmNewFits must be 0: a "
                   "nonzero value means the committed catalog no longer "
                   "covers the suite.");
}

/**
 * Routing perf trajectory (the `bench` experiment): the Table III suite
 * routed with the MIRAGE flow, reporting per-circuit routing-phase wall time
 * (threads=1 and all cores) next to the deterministic hot-path work
 * counters. The counters are pure functions of (circuit, options,
 * seed) -- machine-, build-, and thread-invariant -- so the committed
 * BENCH_fig13.json baseline gives CI a noise-free regression gate
 * while the wall times track the actual speedups per machine.
 */
json::Value
runBenchRouting(const SweepKnobs &userKnobs)
{
    const TableThree t = tableThree(userKnobs);

    json::Value rows = json::Value::array();
    bool identical = true;
    double serial_ms = 0, parallel_ms = 0;
    uint64_t total_evals = 0, total_stalls = 0;
    for (const auto &info : t.suite) {
        auto circ = info.make();
        auto opts = t.options;
        opts.seed = 0xF13;
        opts.threads = 1;
        auto serial = mirage_pass::transpile(circ, t.grid, opts);
        opts.threads = 0; // all hardware threads
        auto parallel = mirage_pass::transpile(circ, t.grid, opts);
        identical = identical &&
                    circuit::Circuit::bitIdentical(serial.routed,
                                                   parallel.routed) &&
                    serial.routingCounters == parallel.routingCounters;

        const auto &c = serial.routingCounters;
        json::Value row = json::Value::object();
        row.set("name", info.name);
        row.set("qubits", info.qubits);
        row.set("serialMs", serial.routingMs);
        row.set("parallelMs", parallel.routingMs);
        row.set("swaps", serial.swapsAdded);
        row.set("stallSteps", c.stallSteps);
        row.set("swapCandidates", c.swapCandidates);
        row.set("heuristicEvals", c.heuristicEvals);
        row.set("evalsPerStall", c.evalsPerStall());
        row.set("mirrorOutlooks", c.mirrorOutlooks);
        row.set("extSetBuilds", c.extSetBuilds);
        row.set("extSetReuses", c.extSetReuses);
        rows.push(std::move(row));

        serial_ms += serial.routingMs;
        parallel_ms += parallel.routingMs;
        total_evals += c.heuristicEvals;
        total_stalls += c.stallSteps;
    }

    json::Value params = parametersJson(t.knobs);
    params.set("circuits", uint64_t(t.suite.size()));
    json::Value summary = json::Value::object();
    summary.set("routingSerialMs", serial_ms);
    summary.set("routingParallelMs", parallel_ms);
    summary.set("parallelSpeedup",
                parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
    summary.set("heuristicEvals", total_evals);
    summary.set("evalsPerStall",
                total_stalls ? double(total_evals) / double(total_stalls)
                             : 0.0);
    summary.set("outputsBitIdentical", identical);
    summary.set("hardwareThreads", exec::defaultThreads());
    return payload(std::move(params),
                   {column("name", "name"), column("qubits", "qubits"),
                    column("serialMs", "route(ms,1T)", 1),
                    column("parallelMs", "route(ms,NT)", 1),
                    column("swaps", "swaps"),
                    column("stallSteps", "stalls"),
                    column("heuristicEvals", "h-evals"),
                    column("evalsPerStall", "evals/stall", 2),
                    column("extSetBuilds", "ext-builds"),
                    column("extSetReuses", "ext-reuses")},
                   std::move(rows), std::move(summary),
                   "Routing-phase wall time of the Table III suite on an "
                   "8x8 grid (MirageDepth flow), threads=1 vs all cores, "
                   "with the deterministic hot-path counters. Wall times "
                   "vary by machine; the counters and routed circuits must "
                   "not (the `mirage sweep --check` CI gate compares "
                   "counters only).");
}

/**
 * Fig. 13 runtime scaling and its caching ablation: QFT(n) on an 8x8
 * grid, consolidated and routed by one pass from a fixed random layout
 * as plain SABRE, as MIRAGE, and as MIRAGE with consolidation's
 * coordinate cache off. The cache is cleared before each variant, so
 * its hit/miss counters are deterministic, and it must not change the
 * routed circuit (`cachedEqualsUncached`). Wall times are informational.
 */
json::Value
runFig13Scaling(const SweepKnobs &userKnobs)
{
    static constexpr int kSizes[] = {16, 24, 32, 48, 64};
    const size_t sizes = limited(userKnobs, std::size(kSizes));
    const topology::CouplingMap grid = topology::CouplingMap::grid(8, 8);
    const monodromy::CostModel cost = monodromy::makeRootIswapCostModel(2);

    struct Variant
    {
        double ms;
        circuit::ConsolidateStats consolidate;
        router::RouteResult route;
    };
    auto run = [&](const circuit::Circuit &circ,
                   router::Aggression aggression, bool cached) {
        circuit::clearCoordinateCache();
        Variant v;
        const auto t0 = std::chrono::steady_clock::now();
        circuit::ConsolidateOptions copts;
        copts.useCoordinateCache = cached;
        const circuit::Circuit blocks =
            circuit::consolidateBlocks(circ, copts, &v.consolidate);
        router::PassOptions opts;
        opts.aggression = aggression;
        opts.costModel = &cost;
        opts.seed = 42;
        Rng rng(7);
        v.route = router::routePass(
            blocks, grid, layout::Layout::random(grid.numQubits(), rng),
            opts);
        v.ms = millisSince(t0);
        return v;
    };

    json::Value rows = json::Value::array();
    json::Value qubits = json::Value::array();
    bool identical = true;
    double sabre_ms = 0, mirage_ms = 0, uncached_ms = 0;
    for (size_t i = 0; i < sizes; ++i) {
        const circuit::Circuit circ = bench::qft(kSizes[i], true);
        const Variant sabre = run(circ, router::Aggression::None, true);
        const Variant mirage = run(circ, router::Aggression::Equal, true);
        const Variant uncached = run(circ, router::Aggression::Equal, false);
        const bool same = circuit::Circuit::bitIdentical(
            mirage.route.routed, uncached.route.routed);

        json::Value row = json::Value::object();
        row.set("qubits", kSizes[i]);
        row.set("sabreMs", sabre.ms);
        row.set("mirageMs", mirage.ms);
        row.set("uncachedMs", uncached.ms);
        row.set("blocks", mirage.consolidate.blocksEmitted);
        row.set("sabreSwaps", sabre.route.swapsAdded);
        row.set("mirageSwaps", mirage.route.swapsAdded);
        row.set("uncachedSwaps", uncached.route.swapsAdded);
        row.set("coordCacheHits", mirage.consolidate.coordCacheHits);
        row.set("coordCacheMisses", mirage.consolidate.coordCacheMisses);
        row.set("identical", same);
        rows.push(std::move(row));
        qubits.push(kSizes[i]);

        identical = identical && same;
        sabre_ms += sabre.ms;
        mirage_ms += mirage.ms;
        uncached_ms += uncached.ms;
    }

    json::Value params = json::Value::object();
    params.set("qubits", std::move(qubits));
    params.set("topology", grid.name());
    params.set("layoutSeed", 7);
    params.set("seed", 42);
    json::Value summary = json::Value::object();
    summary.set("cachedEqualsUncached", identical);
    summary.set("sabreMs", sabre_ms);
    summary.set("mirageMs", mirage_ms);
    summary.set("uncachedMs", uncached_ms);
    return payload(std::move(params),
                   {column("qubits", "qubits"),
                    column("sabreMs", "SABRE(ms)", 1),
                    column("mirageMs", "MIRAGE(ms)", 1),
                    column("uncachedMs", "uncached(ms)", 1),
                    column("blocks", "blocks"),
                    column("sabreSwaps", "SABRE swaps"),
                    column("mirageSwaps", "MIRAGE swaps"),
                    column("uncachedSwaps", "uncached swaps"),
                    column("coordCacheHits", "cache hits"),
                    column("coordCacheMisses", "cache misses"),
                    column("identical", "identical")},
                   std::move(rows), std::move(summary),
                   "QFT(n) on an 8x8 grid: consolidation plus one routing "
                   "pass from a fixed random layout, as SABRE, as MIRAGE, "
                   "and as MIRAGE with the coordinate cache off. Wall "
                   "times vary by machine and are never gated; blocks, "
                   "swaps and cache counters are deterministic, and "
                   "cachedEqualsUncached must be true.");
}

/**
 * Large-device routing gate (fig12 at Osprey/Condor scale): route a
 * slice of the Table III suite on the 433/1121-qubit heavy-hex and
 * 33x33-grid topologies, which build in sparse mode (CSR + BFS-on-demand
 * distance rows; no O(n^2) tables). The artifact records the same
 * deterministic hot-path counters as the `bench` experiment -- so
 * `mirage sweep --experiment fig12-large --check` gates regressions the
 * same way -- plus per-topology memory accounting (CSR + components +
 * per-thread row cache vs the dense-equivalent flat tables). The
 * `memorySubQuadratic` summary flag is the CI memory gate.
 */
json::Value
runFig12Large(const SweepKnobs &userKnobs)
{
    // Small knob defaults: a single routed pass per direction is enough
    // for the counters/memory gate, and keeps the 1121-qubit sweep in CI
    // seconds territory.
    const SweepKnobs knobs = resolve(userKnobs, 1, 2, 1, 1);
    const std::vector<topology::CouplingMap> devices = {
        topology::CouplingMap::heavyHex433(),
        topology::CouplingMap::heavyHex1121(),
        topology::CouplingMap::grid(33, 33),
    };
    // Table III circuits spanning a ~6x range of 2Q gate count, so
    // ms-per-gate across rows tracks route-time scaling in gate count.
    const std::vector<std::string> circuits = {
        "wstate_n27", "knn_n25", "multiplier_n15", "qft_n18"};
    const size_t limit = limited(knobs, circuits.size());

    json::Value rows = json::Value::array();
    json::Value topo_summaries = json::Value::array();
    bool all_sub_quadratic = true;
    bool all_near_linear = true;
    std::vector<std::pair<size_t, double>> ratio_by_n;
    for (const auto &device : devices) {
        const size_t n = size_t(device.numQubits());
        topology::CouplingMap::clearRowCache();
        // Smallest/largest circuit by 2Q count on this device, for the
        // route-time-vs-gate-count growth comparison.
        int gates_min = 0, gates_max = 0;
        double ms_at_min = 0, ms_at_max = 0;
        for (size_t i = 0; i < limit; ++i) {
            const auto &info = bench::benchmarkByName(circuits[i]);
            auto circ = info.make();
            auto opts =
                sweepOptions(mirage_pass::Flow::MirageDepth, 0xF12, knobs);
            // Serial: the memory audit below reads the calling thread's
            // row cache, which a trial-grid fan-out would bypass.
            opts.threads = 1;
            auto res = mirage_pass::transpile(circ, device, opts);

            const auto &c = res.routingCounters;
            const double ms_per_gate =
                info.paperTwoQ > 0 ? res.routingMs / info.paperTwoQ : 0.0;
            json::Value row = json::Value::object();
            row.set("name", info.name + "@" + device.name());
            row.set("topology", device.name());
            row.set("deviceQubits", uint64_t(n));
            row.set("circuitQubits", info.qubits);
            row.set("gates2q", info.paperTwoQ);
            row.set("routeMs", res.routingMs);
            row.set("msPerGate2q", ms_per_gate);
            row.set("swaps", res.swapsAdded);
            row.set("stallSteps", c.stallSteps);
            row.set("heuristicEvals", c.heuristicEvals);
            row.set("extSetBuilds", c.extSetBuilds);
            row.set("extSetReuses", c.extSetReuses);
            rows.push(std::move(row));

            if (gates_min == 0 || info.paperTwoQ < gates_min) {
                gates_min = info.paperTwoQ;
                ms_at_min = res.routingMs;
            }
            if (info.paperTwoQ > gates_max) {
                gates_max = info.paperTwoQ;
                ms_at_max = res.routingMs;
            }
        }

        // Memory audit: everything the sparse device held resident while
        // routing the whole slice, vs the flat tables dense mode would
        // have materialized. The row cache was cleared before this
        // device, so every resident row is one of its rows (n ints each;
        // 128 rows ~= 0.5 MB at n=1121).
        const auto cache = topology::CouplingMap::rowCacheStats();
        const size_t cache_bytes = cache.rows * n * sizeof(int);
        const size_t resident = device.derivedTableBytes() + cache_bytes;
        const size_t dense_equiv =
            n * n * (sizeof(int) + sizeof(uint8_t));
        const bool sub_quadratic = 2 * resident < dense_equiv;
        all_sub_quadratic = all_sub_quadratic && sub_quadratic;

        // Near-linear route time in gate count: going from the smallest
        // to the largest circuit, wall time must not grow more than 1.5x
        // the gate-count growth (in practice it grows slower -- per-pass
        // fixed costs amortize). Informational headroom, not a hard CI
        // gate: wall times vary by machine.
        const double gate_growth =
            gates_min > 0 ? double(gates_max) / gates_min : 0.0;
        const double time_growth =
            ms_at_min > 0 ? ms_at_max / ms_at_min : 0.0;
        const bool near_linear =
            gate_growth > 0 && time_growth <= 1.5 * gate_growth;
        all_near_linear = all_near_linear && near_linear;
        ratio_by_n.emplace_back(
            n, dense_equiv ? double(resident) / double(dense_equiv) : 0.0);

        json::Value ts = json::Value::object();
        ts.set("topology", device.name());
        ts.set("qubits", uint64_t(n));
        ts.set("edges", uint64_t(device.edges().size()));
        ts.set("sparse", device.sparse());
        ts.set("derivedTableBytes", uint64_t(device.derivedTableBytes()));
        ts.set("rowCacheBytes", uint64_t(cache_bytes));
        ts.set("rowCacheRows", uint64_t(cache.rows));
        ts.set("denseEquivalentBytes", uint64_t(dense_equiv));
        ts.set("memoryRatio",
               dense_equiv ? double(resident) / double(dense_equiv) : 0.0);
        ts.set("memorySubQuadratic", sub_quadratic);
        ts.set("routeTimeGrowth", time_growth);
        ts.set("gateCountGrowth", gate_growth);
        ts.set("routeTimeNearLinearInGates", near_linear);
        topo_summaries.push(std::move(ts));
    }
    // The point of sparse mode: resident memory relative to dense must
    // FALL as devices grow (O(n + m) vs O(n^2)). Compare the smallest
    // device against the largest.
    std::sort(ratio_by_n.begin(), ratio_by_n.end());
    const bool ratio_shrinks =
        ratio_by_n.size() < 2 ||
        ratio_by_n.back().second < ratio_by_n.front().second;
    // Release the rows for any later experiment in this process.
    topology::CouplingMap::clearRowCache();

    json::Value params = parametersJson(knobs);
    params.set("circuits", uint64_t(limit));
    params.set("rowCacheCapacity",
               uint64_t(topology::CouplingMap::kRowCacheRows));
    json::Value summary = json::Value::object();
    summary.set("topologies", std::move(topo_summaries));
    summary.set("memorySubQuadratic", all_sub_quadratic);
    summary.set("memoryRatioShrinksWithN", ratio_shrinks);
    summary.set("routeTimeNearLinearInGates", all_near_linear);
    return payload(std::move(params),
                   {column("name", "name"),
                    column("deviceQubits", "device-q"),
                    column("gates2q", "2q-gates"),
                    column("routeMs", "route(ms)", 1),
                    column("msPerGate2q", "ms/2q-gate", 3),
                    column("swaps", "swaps"),
                    column("stallSteps", "stalls"),
                    column("heuristicEvals", "h-evals"),
                    column("extSetBuilds", "ext-builds")},
                   std::move(rows), std::move(summary),
                   "Table III circuits routed on 433/1121-qubit heavy-hex "
                   "and a 33x33 grid, all in sparse topology mode (CSR "
                   "adjacency + BFS-on-demand distance rows behind a "
                   "per-thread LRU cache; no O(n^2) tables). "
                   "memorySubQuadratic asserts resident topology bytes "
                   "(tables + row cache) stay under half of the "
                   "dense-equivalent flat tables; msPerGate2q tracks "
                   "route-time scaling in gate count. Counters are "
                   "deterministic and gated by `mirage sweep --experiment "
                   "fig12-large --check`; wall times vary by machine and "
                   "are never compared.");
}

// --- mirror-circuit verification -------------------------------------------

/**
 * Success-probability tolerance for a lowered circuit, derived the same
 * way as the test oracle's loweringTolerance (tests/support/
 * equivalence.hh): per-amplitude error is bounded by 1e-7 + 8 *
 * sum(sqrt(block infidelity)), and a probability |a|^2 can dip below 1
 * by at most twice the amplitude error. Capped at 0.5 so the threshold
 * always separates a working pipeline (~1) from a corrupted one
 * (~2^-width).
 */
double
loweredSuccessTolerance(double root_infidelity_sum)
{
    return std::min(0.5, 2.0 * (1e-7 + 8.0 * root_infidelity_sum));
}

/**
 * Self-verifying mirror-family sweep (mirror-RB or mirror-QV) on the
 * heavy-hex 57Q device -- widths the 6-qubit unitary oracle cannot
 * reach. Each instance is routed with the baseline and MIRAGE flows,
 * lowered to RootISWAP pulses, and the ideal bitstring's probability is
 * measured on BOTH the routed and the lowered circuit by sparse
 * simulation; `verified` requires routed ~exact and lowered within the
 * fit-error budget.
 */
json::Value
runMirrorFamily(const SweepKnobs &userKnobs, bool qv)
{
    const MirrorWorkload m = mirrorWorkload(userKnobs, qv);
    const SweepKnobs &knobs = m.knobs;
    const auto &topo = m.device;

    decomp::LibraryReport report;
    auto lib = decomp::openLibrary(2, knobs.catalogPath, knobs.cacheDir,
                                   &report);
    warnIf(report.cacheWarning);

    json::Value rows = json::Value::array();
    bool all_verified = true;
    double min_lowered = 1.0;
    for (const auto &inst : m.instances) {
        const bench::MirrorCircuit &mc = inst.mirror;
        auto base = mirage_pass::transpile(
            mc.circuit, topo,
            sweepOptions(mirage_pass::Flow::SabreBaseline, inst.routeSeed,
                         knobs));
        auto res = mirage_pass::transpile(mc.circuit, topo,
                                          m.lowered(inst, lib.get()));

        const auto &l2p = res.final.logicalToPhysical();
        double routed_p = bench::mirrorSuccessProbability(
            res.routed, l2p, mc.bitstring);
        double lowered_p = bench::mirrorSuccessProbability(
            res.lowered, l2p, mc.bitstring);
        double tol = loweredSuccessTolerance(
            res.translateStats.rootInfidelitySum);
        bool verified = routed_p >= 1.0 - 1e-9 && lowered_p >= 1.0 - tol;
        all_verified = all_verified && verified;
        min_lowered = std::min(min_lowered, lowered_p);

        json::Value row = json::Value::object();
        row.set("circuit", mc.circuit.name());
        row.set("qubits", inst.width);
        row.set("instance", inst.index);
        row.set("baselineDepth", base.metrics.depth);
        row.set("mirageDepth", res.metrics.depth);
        row.set("depthRed", pct(base.metrics.depth, res.metrics.depth));
        row.set("swaps", res.swapsAdded);
        row.set("mirrors", res.mirrorsAccepted);
        row.set("routedSuccess", routed_p);
        row.set("loweredSuccess", lowered_p);
        row.set("successTolerance", tol);
        row.set("verified", verified);
        row.set("stallSteps", res.routingCounters.stallSteps);
        row.set("heuristicEvals", res.routingCounters.heuristicEvals);
        rows.push(std::move(row));
    }
    warnIf(decomp::saveLibrary(*lib, knobs.cacheDir));

    json::Value params = parametersJson(knobs);
    params.set("topology", topo.name());
    params.set("widths", uint64_t(m.widths));
    json::Value summary = json::Value::object();
    summary.set("allVerified", all_verified);
    summary.set("minLoweredSuccess", min_lowered);
    setCatalogSummary(summary, report.catalog);
    return payload(std::move(params),
                   {column("circuit", "circuit"),
                    column("qubits", "qubits"),
                    column("instance", "inst"),
                    column("baselineDepth", "base depth", 1),
                    column("mirageDepth", "mirage depth", 1),
                    column("depthRed", "d%", 1), column("swaps", "swaps"),
                    column("mirrors", "mirrors"),
                    column("routedSuccess", "P(routed)", 6),
                    column("loweredSuccess", "P(lowered)", 6),
                    column("successTolerance", "tol", -1, true),
                    column("verified", "ok"),
                    column("stallSteps", "stalls"),
                    column("heuristicEvals", "h-evals")},
                   std::move(rows), std::move(summary),
                   "Every row is one self-verifying mirror circuit routed "
                   "on heavy-hex 57Q and lowered to sqrt(iSWAP) pulses; the "
                   "ideal bitstring's probability is measured by sparse "
                   "simulation of the emitted circuit on all 57 wires. "
                   "allVerified must be true: the bitstring check "
                   "certifies the whole pipeline at widths the exhaustive "
                   "unitary oracle (<= 6 qubits) cannot reach.");
}

/**
 * Scenario matrix: {mirror families + Table III suite} x {grid6x6,
 * heavyhex57, line30} x {aggression 0-3}. Mirror workloads lead the
 * suite so `--limit 2` runs exactly the self-verifying rows (the CI
 * smoke shape); their routed circuits are bitstring-checked per cell.
 */
json::Value
runMatrix(const SweepKnobs &userKnobs)
{
    const SweepKnobs knobs = resolve(userKnobs, 1, 2, 2, 1);

    struct Workload
    {
        std::string name;
        int qubits;
        circuit::Circuit circ;
        std::vector<int> bits; ///< empty = not a mirror workload
    };
    std::vector<Workload> suite;
    auto rb = bench::mirrorRb(10, 3, 0xB0B);
    suite.push_back({rb.circuit.name(), 10, rb.circuit, rb.bitstring});
    auto qv = bench::mirrorQv(10, 4, 0xB0B);
    suite.push_back({qv.circuit.name(), 10, qv.circuit, qv.bitstring});
    for (const auto &b : bench::paperBenchmarks())
        suite.push_back({b.name, b.qubits, b.make(), {}});
    suite.resize(limited(knobs, suite.size()));

    const std::vector<topology::CouplingMap> topologies = {
        topology::CouplingMap::grid(6, 6),
        topology::CouplingMap::heavyHex57(),
        topology::CouplingMap::line(30),
    };

    json::Value rows = json::Value::array();
    int cells = 0, mirror_cells = 0, verified_cells = 0;
    for (const auto &w : suite) {
        for (const auto &topo : topologies) {
            auto base = mirage_pass::transpile(
                w.circ, topo,
                sweepOptions(mirage_pass::Flow::SabreBaseline,
                             instanceSeed(0), knobs));
            for (int a = 0; a <= 3; ++a) {
                auto opts = sweepOptions(mirage_pass::Flow::MirageDepth,
                                         instanceSeed(0), knobs);
                opts.fixedAggression = a;
                auto res = mirage_pass::transpile(w.circ, topo, opts);

                json::Value row = json::Value::object();
                row.set("circuit", w.name);
                row.set("qubits", w.qubits);
                row.set("topology", topo.name());
                row.set("aggression", a);
                row.set("baselineDepth", base.metrics.depth);
                row.set("depth", res.metrics.depth);
                row.set("depthRed",
                        pct(base.metrics.depth, res.metrics.depth));
                row.set("swaps", res.swapsAdded);
                row.set("mirrors", res.mirrorsAccepted);
                row.set("heuristicEvals",
                        res.routingCounters.heuristicEvals);
                ++cells;
                if (!w.bits.empty()) {
                    double p = bench::mirrorSuccessProbability(
                        res.routed, res.final.logicalToPhysical(),
                        w.bits);
                    bool ok = p >= 1.0 - 1e-9;
                    row.set("successProb", p);
                    row.set("verified", ok);
                    ++mirror_cells;
                    if (ok)
                        ++verified_cells;
                }
                rows.push(std::move(row));
            }
        }
    }

    json::Value params = parametersJson(knobs);
    params.set("workloads", uint64_t(suite.size()));
    json::Value summary = json::Value::object();
    summary.set("cells", cells);
    summary.set("mirrorCells", mirror_cells);
    summary.set("verifiedCells", verified_cells);
    summary.set("allMirrorCellsVerified", mirror_cells == verified_cells);
    return payload(std::move(params),
                   {column("circuit", "circuit"),
                    column("qubits", "qubits"),
                    column("topology", "topology"),
                    column("aggression", "aggr"),
                    column("baselineDepth", "base depth", 1),
                    column("depth", "depth", 1),
                    column("depthRed", "d%", 1), column("swaps", "swaps"),
                    column("mirrors", "mirrors"),
                    column("heuristicEvals", "h-evals"),
                    column("successProb", "P(bitstring)", 6),
                    column("verified", "ok")},
                   std::move(rows), std::move(summary),
                   "Table III grown into a scenario matrix: every workload "
                   "x {grid6x6, heavyhex57, line30} x fixed aggression 0-3, "
                   "one row per cell. The two mirror workloads lead the "
                   "suite (--limit 2 runs only them) and are "
                   "bitstring-verified against the routed circuit in every "
                   "cell; allMirrorCellsVerified must be true.");
}

} // namespace

const std::vector<Experiment> &
experimentRegistry()
{
    static const std::vector<Experiment> registry = {
        {"fig3-4", "Figures 3-4",
         "Haar-weighted coverage of CNOT and iSWAP-root polytopes, with "
         "and without mirrors",
         "paper: sqrt(iSWAP) k=2 covers 79.0% (94.4% with mirrors); CNOT "
         "k=2 is a zero-volume planar slice; the 4th root needs k=6 "
         "exactly, k=4 with mirrors",
         runFig3And4},
        {"fig5", "Figure 5",
         "Monte-Carlo convergence of the 4th-root-iSWAP Haar score, four "
         "strategies",
         "paper: exact ~0.96, exact+mirrors ~0.90, approx+mirrors < 0.85",
         runFig5},
        {"fig6", "Figure 6",
         "CPHASE gates and their pSWAP mirrors against the sqrt(iSWAP) "
         "cost model",
         "paper: the CNOT <-> iSWAP mirror is free at k=2; fractional "
         "CPHASEs mirror into k=3 pSWAPs",
         runFig6},
        {"fig8", "Figure 8",
         "TwoLocal(full, 4q) on a 4-qubit line: baseline vs MIRAGE",
         "paper: 16 pulses / 3 SWAPs vs 10 pulses / 0 SWAPs", runFig8},
        {"fig9", "Figure 9",
         "Greedy local minima: 64 routing passes of one input from one "
         "layout",
         "paper: trials from the same layout land in different minima (6 "
         "vs 7+ pulses on its subset); post-selection keeps the best",
         runFig9},
        {"fig10", "Figure 10",
         "Fixed mirror-aggression levels vs the Qiskit baseline",
         "paper: no single aggression level is universally optimal; the "
         "mixed 5/45/45/5 distribution is competitive everywhere",
         runFig10},
        {"fig11", "Figure 11",
         "Post-selection metric: SWAP count vs estimated depth",
         "paper: -24.1% average depth (SWAP selection) -> -29.5% (depth "
         "selection), total gates mostly unchanged",
         runFig11},
        {"fig12", "Figure 12",
         "MIRAGE vs Qiskit-SABRE on production topologies",
         "paper: heavy-hex -31.19% depth / -16.97% gates / -56.19% "
         "SWAPs; square lattice -29.58% depth / -10.25% gates / -59.86% "
         "SWAPs",
         runFig12},
        {"table1", "Table I",
         "Exact Haar scores/fidelities for iSWAP roots, with mirrors",
         "paper: 1.105/0.9890 1.029/0.9897 | 0.9907/0.9901 "
         "0.9545/0.9904 | 0.9599/0.9904 0.8997/0.9910",
         [](const SweepKnobs &k) { return runHaarTable(k, false); }},
        {"table2", "Table II",
         "Approximate (Algorithm 1) Haar scores for iSWAP roots",
         "paper: 1.031/0.9895 0.9950/0.9899 | 0.9433/0.9904 "
         "0.8900/0.9908 | 0.9165/0.9906 0.8453/0.9913",
         [](const SweepKnobs &k) { return runHaarTable(k, true); }},
        {"table3", "Table III",
         "Benchmark suite inventory with measured sqrt(iSWAP) pulses",
         "paper: Table III reports the suite's 2Q gate counts; this "
         "repo additionally measures the lowered pulse counts "
         "(measured == estimated expected)",
         runTable3},
        {"mirror-rb", "Mirror RB",
         "Self-verifying mirror randomized-benchmarking circuits, "
         "routed+lowered on heavy-hex 57Q with a bitstring oracle",
         "beyond paper: Proctor et al. mirror circuits; end-to-end "
         "pipeline verification at widths the 6-qubit unitary oracle "
         "cannot reach (allVerified must be true)",
         [](const SweepKnobs &k) { return runMirrorFamily(k, false); }},
        {"mirror-qv", "Mirror QV",
         "Self-verifying mirror quantum-volume circuits (random SU(4) "
         "halves), routed+lowered on heavy-hex 57Q with a bitstring "
         "oracle",
         "beyond paper: mitiq-style mirror QV; end-to-end pipeline "
         "verification at widths the 6-qubit unitary oracle cannot "
         "reach (allVerified must be true)",
         [](const SweepKnobs &k) { return runMirrorFamily(k, true); }},
        {"matrix", "Table III (scenario matrix)",
         "{mirror families + Table III suite} x {grid6x6, heavyhex57, "
         "line30} x aggression 0-3, one artifact row per cell",
         "beyond paper: full scenario coverage with per-cell depth "
         "reduction and bitstring verification of the mirror workloads",
         runMatrix},
        {"bench", "Figure 13 (routing)",
         "Routing hot-path perf trajectory: wall time + deterministic "
         "work counters",
         "paper: mirror-aware routing must stay fast enough to run "
         "many trials (Section VI-C); tracked here as the committed "
         "BENCH_fig13.json trajectory",
         runBenchRouting},
        {"fig13-scaling", "Figure 13 (scaling)",
         "Routing runtime vs QFT width: SABRE, MIRAGE, and MIRAGE "
         "without the coordinate cache",
         "paper: caching keeps mirror-aware routing about as fast as "
         "plain SABRE (Section VI-C); the cache must not change the "
         "routed circuit (cachedEqualsUncached)",
         runFig13Scaling},
        {"fig12-large", "Figure 12 (large devices)",
         "Table III circuits routed on 433/1121-qubit heavy-hex and a "
         "33x33 grid in sparse topology mode, with a memory audit",
         "beyond paper: the paper evaluates up to heavy-hex 57; this "
         "sweep scales routing to IBM Osprey/Condor-class devices with "
         "sub-quadratic topology memory (tracked as the committed "
         "BENCH_large_topo.json trajectory)",
         runFig12Large},
        {"bench-lowering", "Figure 13 (lowering)",
         "Lowering cold-start trajectory: cold fits vs the committed "
         "FIT_CATALOG.bin, with deterministic fit counters",
         "paper: Section VI-C motivates the decomposition cache; "
         "tracked here as the committed BENCH_lowering.json trajectory "
         "(warmNewFits must stay 0)",
         runBenchLowering},
    };
    return registry;
}

std::unique_ptr<decomp::EquivalenceLibrary>
buildCatalogLibrary(int threads)
{
    auto lib = std::make_unique<decomp::EquivalenceLibrary>(2);
    SweepKnobs user;
    user.threads = threads;
    const TableThree t = tableThree(user);
    for (const auto &c : t.circuits())
        mirage_pass::transpile(c, t.grid, lowerThrough(t.options, lib.get()));
    for (bool qv : {false, true}) {
        const MirrorWorkload m = mirrorWorkload(user, qv);
        for (const auto &inst : m.instances)
            mirage_pass::transpile(inst.mirror.circuit, m.device,
                                   m.lowered(inst, lib.get()));
    }
    return lib;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &e : experimentRegistry()) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

json::Value
runExperiment(const Experiment &e, const SweepKnobs &knobs)
{
    json::Value payload = e.run(knobs);
    json::Value artifact = json::Value::object();
    artifact.set("schemaVersion", kArtifactSchemaVersion);
    artifact.set("kind", kSweepArtifactKind);
    artifact.set("experiment", e.name);
    artifact.set("paperArtifact", e.artifact);
    artifact.set("title", e.title);
    artifact.set("paperRef", e.paperRef);
    for (const auto &[key, value] : payload.members())
        artifact.set(key, value);
    return artifact;
}

bool
validateArtifact(const json::Value &artifact, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!artifact.isObject())
        return fail("artifact is not a JSON object");
    const json::Value *version = artifact.find("schemaVersion");
    if (!version || !version->isNumber())
        return fail("missing numeric 'schemaVersion'");
    if (version->asInt() != kArtifactSchemaVersion)
        return fail("schemaVersion " + std::to_string(version->asInt()) +
                    " != supported " +
                    std::to_string(kArtifactSchemaVersion));
    const json::Value *kind = artifact.find("kind");
    if (!kind || !kind->isString() ||
        kind->asString() != kSweepArtifactKind)
        return fail("missing or unexpected 'kind' (want \"" +
                    std::string(kSweepArtifactKind) + "\")");
    for (const char *key :
         {"experiment", "paperArtifact", "title", "paperRef"}) {
        const json::Value *v = artifact.find(key);
        if (!v || !v->isString())
            return fail(std::string("missing string '") + key + "'");
    }
    const json::Value *params = artifact.find("parameters");
    if (!params || !params->isObject())
        return fail("missing object 'parameters'");
    const json::Value *columns = artifact.find("columns");
    if (!columns || !columns->isArray() || columns->size() == 0)
        return fail("missing non-empty array 'columns'");
    for (size_t i = 0; i < columns->size(); ++i) {
        const json::Value &c = columns->at(i);
        const json::Value *key = c.isObject() ? c.find("key") : nullptr;
        const json::Value *label =
            c.isObject() ? c.find("label") : nullptr;
        if (!key || !key->isString() || !label || !label->isString())
            return fail("column " + std::to_string(i) +
                        " lacks string key/label");
    }
    const json::Value *rows = artifact.find("rows");
    if (!rows || !rows->isArray())
        return fail("missing array 'rows'");
    for (size_t i = 0; i < rows->size(); ++i) {
        if (!rows->at(i).isObject())
            return fail("row " + std::to_string(i) + " is not an object");
    }
    return true;
}

bool
checkBenchCounters(const json::Value &current, const json::Value &baseline,
                   std::string *report)
{
    auto fail = [report](const std::string &msg) {
        if (report)
            *report += msg + "\n";
        return false;
    };
    std::string err;
    if (!validateArtifact(current, &err))
        return fail("current artifact invalid: " + err);
    if (!validateArtifact(baseline, &err))
        return fail("baseline artifact invalid: " + err);
    // Counter-gated artifacts: rows keyed by "name" carrying the
    // deterministic hot-path counters. Both sides must come from the
    // same experiment or the row sets aren't comparable.
    const std::string experiment = current["experiment"].asString();
    if (experiment != "bench" && experiment != "fig12-large" &&
        experiment != "bench-lowering")
        return fail("not a counter-gated artifact: " + experiment);
    if (baseline["experiment"].asString() != experiment)
        return fail("experiment mismatch: current '" + experiment +
                    "' vs baseline '" +
                    baseline["experiment"].asString() + "'");

    // Memory gate for the sparse-topology bench: losing the
    // sub-quadratic property is a regression even if counters hold.
    if (experiment == "fig12-large") {
        const json::Value *sub =
            current["summary"].find("memorySubQuadratic");
        if (!sub || !sub->isBool() || !sub->asBool())
            return fail("memorySubQuadratic is not true: sparse topology "
                        "memory regressed to O(n^2) territory");
        const json::Value *shrink =
            current["summary"].find("memoryRatioShrinksWithN");
        if (!shrink || !shrink->isBool() || !shrink->asBool())
            return fail("memoryRatioShrinksWithN is not true: resident "
                        "topology memory is not scaling sub-quadratically "
                        "across device sizes");
    }

    // Counters are only comparable when the routing workload matches;
    // threads is exempt (counters are thread-invariant by contract).
    for (const char *key : {"seeds", "layoutTrials", "swapTrials",
                            "forwardBackwardPasses", "circuits"}) {
        const json::Value *c = current["parameters"].find(key);
        const json::Value *b = baseline["parameters"].find(key);
        if (!c || !b || c->asInt() != b->asInt())
            return fail(std::string("parameter '") + key +
                        "' differs from the baseline; regenerate the "
                        "baseline with matching knobs");
    }

    // The gated counters per experiment. Routing benches gate the
    // SABRE hot path; bench-lowering gates the fit pipeline (fits and
    // objective evaluations per circuit) plus warmNewFits, whose
    // baseline is 0 -- so ANY warm fit is a regression: the committed
    // catalog stopped covering the suite.
    const std::vector<const char *> counter_keys =
        experiment == "bench-lowering"
            ? std::vector<const char *>{"fits", "fitEvaluations",
                                        "warmNewFits",
                                        "warmFitEvaluations"}
            : std::vector<const char *>{"heuristicEvals", "extSetBuilds"};

    bool ok = true;
    const json::Value &rows = current["rows"];
    const json::Value &base_rows = baseline["rows"];
    auto findRow = [&base_rows](const std::string &name) {
        for (size_t i = 0; i < base_rows.size(); ++i) {
            const json::Value *n = base_rows.at(i).find("name");
            if (n && n->isString() && n->asString() == name)
                return &base_rows.at(i);
        }
        return static_cast<const json::Value *>(nullptr);
    };
    size_t matched = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const json::Value &row = rows.at(i);
        const std::string name = row["name"].asString();
        const json::Value *base = findRow(name);
        if (!base)
            continue; // a new circuit has no baseline yet
        ++matched;
        for (const char *key : counter_keys) {
            int64_t now = row[key].asInt();
            int64_t ref = (*base)[key].asInt();
            if (now > ref) {
                ok = false;
                fail(name + ": " + key + " regressed " +
                     std::to_string(ref) + " -> " + std::to_string(now));
            } else if (report && now < ref) {
                *report += name + ": " + key + " improved " +
                           std::to_string(ref) + " -> " +
                           std::to_string(now) + "\n";
            }
        }
    }
    // Every baseline circuit must still be measured, or a regression
    // could hide behind a shrunken suite.
    if (matched < base_rows.size()) {
        ok = false;
        fail("current run covers " + std::to_string(matched) + " of " +
             std::to_string(base_rows.size()) + " baseline circuits");
    }
    return ok;
}

namespace {

/** Format one cell according to the column spec. */
std::string
formatCell(const json::Value &v, const json::Value &col)
{
    if (v.isString())
        return v.asString();
    if (v.isBool())
        return v.asBool() ? "true" : "false";
    if (v.isNull())
        return "";
    if (!v.isNumber())
        return v.dump(0);
    const json::Value *sci = col.find("sci");
    if (sci && sci->isBool() && sci->asBool()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1e", v.asNumber());
        return buf;
    }
    const json::Value *digits = col.find("digits");
    if (digits && digits->isNumber()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.*f", int(digits->asInt()),
                      v.asNumber());
        return buf;
    }
    return json::formatNumber(v.asNumber());
}

std::string
formatSummaryValue(const json::Value &v)
{
    if (v.isString())
        return v.asString();
    if (v.isBool())
        return v.asBool() ? "true" : "false";
    if (v.isNumber()) {
        double d = v.asNumber();
        if (d == std::floor(d) && std::fabs(d) < 1e15)
            return json::formatNumber(d);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4g", d);
        return buf;
    }
    return v.dump(0);
}

} // namespace

std::string
renderMarkdown(const json::Value &artifact)
{
    std::string err;
    if (!validateArtifact(artifact, &err))
        return "<!-- invalid artifact: " + err + " -->\n";

    const json::Value &columns = artifact["columns"];
    const json::Value &rows = artifact["rows"];

    std::string out = "## " + artifact["paperArtifact"].asString() +
                      " — " + artifact["title"].asString() + " (`" +
                      artifact["experiment"].asString() + "`)\n\n";

    const json::Value &params = artifact["parameters"];
    if (params.size()) {
        out += "Parameters: ";
        bool first = true;
        for (const auto &[k, v] : params.members()) {
            if (!first)
                out += ", ";
            out += k + "=" + formatSummaryValue(v);
            first = false;
        }
        out += "\n\n";
    }

    // Header + alignment (numbers right, everything else left). A
    // column is numeric when its first present value is a number.
    std::string header = "|", align = "|";
    for (size_t c = 0; c < columns.size(); ++c) {
        const json::Value &col = columns.at(c);
        header += " " + col["label"].asString() + " |";
        bool numeric = false;
        const std::string &key = col["key"].asString();
        for (size_t r = 0; r < rows.size(); ++r) {
            if (const json::Value *v = rows.at(r).find(key)) {
                numeric = v->isNumber();
                break;
            }
        }
        align += numeric ? " ---: |" : " --- |";
    }
    out += header + "\n" + align + "\n";

    for (size_t r = 0; r < rows.size(); ++r) {
        out += "|";
        for (size_t c = 0; c < columns.size(); ++c) {
            const json::Value &col = columns.at(c);
            const json::Value *v = rows.at(r).find(col["key"].asString());
            out += " ";
            if (v)
                out += formatCell(*v, col);
            out += " |";
        }
        out += "\n";
    }

    if (const json::Value *summary = artifact.find("summary");
        summary && summary->isObject() && summary->size()) {
        out += "\n";
        for (const auto &[k, v] : summary->members()) {
            if (v.isObject()) {
                out += "- " + k + ":";
                for (const auto &[k2, v2] : v.members())
                    out += " " + k2 + "=" + formatSummaryValue(v2);
                out += "\n";
            } else if (v.isArray()) {
                out += "- " + k + ": ";
                for (size_t i = 0; i < v.size(); ++i) {
                    if (i)
                        out += ", ";
                    out += formatSummaryValue(v.at(i));
                }
                out += "\n";
            } else {
                out += "- " + k + ": " + formatSummaryValue(v) + "\n";
            }
        }
    }

    if (const json::Value *notes = artifact.find("notes");
        notes && notes->isString())
        out += "\n" + notes->asString() + "\n";
    out += "\n*" + artifact["paperRef"].asString() + "*\n";
    return out;
}

std::string
renderCsv(const json::Value &artifact)
{
    std::string err;
    if (!validateArtifact(artifact, &err))
        return "";

    const json::Value &columns = artifact["columns"];
    const json::Value &rows = artifact["rows"];

    auto csvEscape = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string out = "\"";
        for (char c : s) {
            if (c == '"')
                out += '"';
            out += c;
        }
        out += '"';
        return out;
    };

    std::string out;
    for (size_t c = 0; c < columns.size(); ++c) {
        if (c)
            out += ",";
        out += csvEscape(columns.at(c)["key"].asString());
    }
    out += "\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        for (size_t c = 0; c < columns.size(); ++c) {
            if (c)
                out += ",";
            const json::Value *v =
                rows.at(r).find(columns.at(c)["key"].asString());
            if (!v || v->isNull())
                continue;
            if (v->isNumber())
                out += json::formatNumber(v->asNumber());
            else if (v->isBool())
                out += v->asBool() ? "true" : "false";
            else if (v->isString())
                out += csvEscape(v->asString());
            else
                out += csvEscape(v->dump(0));
        }
        out += "\n";
    }
    return out;
}

} // namespace mirage::cli
