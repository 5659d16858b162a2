/**
 * @file
 * Scoring-equivalence and hot-path regression tests for the router.
 *
 * The optimized routing path (flat distance table, scratch arena,
 * incremental delta scoring -- ScoreMode::Delta) must produce
 * bit-identical swap and mirror choices to the allocation-heavy
 * reference scorer (ScoreMode::Naive, a runtime hook rather than an
 * #ifdef). Both modes feed exact integer distance sums through one
 * shared combiner, so equality is exact, not approximate; these tests
 * enforce it over the whole Table III suite, every aggression level,
 * and two production topologies, plus the multi-trial flow across
 * thread counts. A pass accumulates its depth/cost estimate as it
 * emits, and that estimate must equal computeMetrics on the
 * materialized circuit exactly.
 */

#include <gtest/gtest.h>

#include "bench_circuits/generators.hh"
#include "circuit/consolidate.hh"
#include "layout/layout.hh"
#include "mirage/depth_metric.hh"
#include "mirage/pipeline.hh"
#include "monodromy/cost_model.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

using namespace mirage;
using namespace mirage::router;
using circuit::Circuit;
using topology::CouplingMap;

namespace {

// TSan slows routing ~10x; cover a representative slice there and the
// full suite everywhere else.
#if defined(__SANITIZE_THREAD__)
constexpr size_t kSuiteLimit = 4;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr size_t kSuiteLimit = 4;
#else
constexpr size_t kSuiteLimit = size_t(-1);
#endif
#else
constexpr size_t kSuiteLimit = size_t(-1);
#endif

/** Full bit-identity of two route results, counters included. */
void
expectSameRoute(const RouteResult &a, const RouteResult &b,
                const std::string &what)
{
    EXPECT_TRUE(Circuit::bitIdentical(a.routed, b.routed)) << what;
    EXPECT_TRUE(a.initial == b.initial) << what;
    EXPECT_TRUE(a.final == b.final) << what;
    EXPECT_EQ(a.swapsAdded, b.swapsAdded) << what;
    EXPECT_EQ(a.mirrorsAccepted, b.mirrorsAccepted) << what;
    EXPECT_EQ(a.mirrorCandidates, b.mirrorCandidates) << what;
    EXPECT_EQ(a.estDepth, b.estDepth) << what;
    EXPECT_EQ(a.estTotalCost, b.estTotalCost) << what;
    EXPECT_TRUE(a.counters == b.counters) << what;
}

/** The pass's running estimate against a full metric walk. */
void
expectEstimateMatchesMetrics(const RouteResult &res,
                             const monodromy::CostModel &cost,
                             const std::string &what)
{
    auto metrics = mirage_pass::computeMetrics(res.routed, cost);
    EXPECT_EQ(res.estDepth, metrics.depth) << what;
    EXPECT_EQ(res.estTotalCost, metrics.totalCost) << what;
}

} // namespace

TEST(ScoringEquivalence, TableThreeSuiteAllAggressionsBothTopologies)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    const auto &suite = bench::paperBenchmarks();
    const size_t limit = std::min(kSuiteLimit, suite.size());
    std::vector<CouplingMap> topologies = {CouplingMap::grid(6, 6),
                                           CouplingMap::heavyHex57()};

    for (size_t i = 0; i < limit; ++i) {
        Circuit consolidated = circuit::consolidateBlocks(
            mirage_pass::unrollThreeQubit(suite[i].make()));
        for (const auto &topo : topologies) {
            Rng lay_rng(1000 + uint64_t(i));
            auto init =
                layout::Layout::random(topo.numQubits(), lay_rng);
            for (Aggression a :
                 {Aggression::None, Aggression::Lower, Aggression::Equal,
                  Aggression::Always}) {
                PassOptions opts;
                opts.aggression = a;
                opts.costModel = &cost;
                opts.seed = 42 + uint64_t(i);

                opts.scoreMode = ScoreMode::Delta;
                RouteResult fast =
                    routePass(consolidated, topo, init, opts);
                opts.scoreMode = ScoreMode::Naive;
                RouteResult ref =
                    routePass(consolidated, topo, init, opts);

                expectSameRoute(fast, ref,
                                suite[i].name + " on " + topo.name() +
                                    " aggression " +
                                    std::to_string(int(a)));
            }
        }
    }
}

TEST(ScoringEquivalence, TrialFlowMatchesAcrossModesAndThreads)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    auto circ = circuit::consolidateBlocks(bench::qft(12, true));
    auto grid = CouplingMap::grid(4, 4);

    TrialOptions opts;
    opts.layoutTrials = 4;
    opts.swapTrials = 2;
    opts.postSelect = PostSelect::Depth;
    opts.trialAggression = mirageAggressionMix(opts.layoutTrials);
    opts.pass.costModel = &cost;
    opts.seed = 4242;

    std::vector<RouteResult> results;
    for (ScoreMode mode : {ScoreMode::Delta, ScoreMode::Naive}) {
        for (int threads : {1, 4}) {
            opts.pass.scoreMode = mode;
            opts.threads = threads;
            results.push_back(routeWithTrials(circ, grid, opts));
        }
    }
    for (size_t i = 1; i < results.size(); ++i)
        expectSameRoute(results[0], results[i],
                        "mode/thread combination " + std::to_string(i));
}

TEST(ScoringEquivalence, TrialGridShapesMatchAcrossThreadsAndPools)
{
    // One task per layout trial runs that trial's swap trials, so the
    // shapes where layoutTrials is below the thread count (idle workers)
    // or not a multiple of it (uneven tasks) must still reduce to the
    // serial result. Plain SABRE on a small line device makes equal
    // metrics across trials common, so the grid-index tie rule is
    // exercised too.
    auto cost = monodromy::makeRootIswapCostModel(2);
    struct Case
    {
        Circuit circ;
        CouplingMap topo;
        bool mirrors;
    };
    const std::vector<Case> cases = {
        {circuit::consolidateBlocks(bench::qft(10, true)),
         CouplingMap::grid(4, 4), true},
        {circuit::consolidateBlocks(bench::qft(5, true)),
         CouplingMap::line(5), false}};
    exec::ThreadPool pool(3);

    for (const auto &[circ, topo, mirrors] : cases) {
        for (auto [layout_trials, swap_trials] :
             {std::pair{1, 4}, std::pair{3, 5}, std::pair{8, 2}}) {
            TrialOptions opts;
            opts.layoutTrials = layout_trials;
            opts.swapTrials = swap_trials;
            opts.forwardBackwardPasses = 1;
            if (mirrors)
                opts.trialAggression = mirageAggressionMix(layout_trials);
            opts.pass.costModel = &cost;
            opts.seed = 606 + uint64_t(layout_trials);
            for (PostSelect post : {PostSelect::Swaps, PostSelect::Depth}) {
                opts.postSelect = post;
                opts.threads = 1;
                opts.pool = nullptr;
                const RouteResult serial = routeWithTrials(circ, topo, opts);
                const std::string shape =
                    topo.name() + " " + std::to_string(layout_trials) +
                    "x" + std::to_string(swap_trials) + " post-select " +
                    std::to_string(int(post));
                for (int threads : {2, 3, 4}) {
                    opts.threads = threads;
                    expectSameRoute(serial,
                                    routeWithTrials(circ, topo, opts),
                                    shape + " threads " +
                                        std::to_string(threads));
                }
                opts.threads = 1;
                opts.pool = &pool;
                expectSameRoute(serial, routeWithTrials(circ, topo, opts),
                                shape + " caller pool");
            }
        }
    }
}

TEST(ScoringEquivalence, EstimateMatchesComputeMetrics)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    const auto &suite = bench::paperBenchmarks();
    const size_t limit = std::min(kSuiteLimit, suite.size());
    std::vector<CouplingMap> topologies = {CouplingMap::grid(8, 8),
                                           CouplingMap::heavyHex57()};

    for (size_t i = 0; i < limit; ++i) {
        Circuit consolidated = circuit::consolidateBlocks(
            mirage_pass::unrollThreeQubit(suite[i].make()));
        for (const auto &topo : topologies) {
            const std::string where = suite[i].name + " on " + topo.name();
            Rng lay_rng(2000 + uint64_t(i));
            auto init =
                layout::Layout::random(topo.numQubits(), lay_rng);
            for (Aggression a :
                 {Aggression::None, Aggression::Lower, Aggression::Equal,
                  Aggression::Always}) {
                PassOptions opts;
                opts.aggression = a;
                opts.costModel = &cost;
                opts.seed = 7 + uint64_t(i);
                RouteResult res = routePass(consolidated, topo, init, opts);
                EXPECT_GT(res.estDepth, 0) << where;
                expectEstimateMatchesMetrics(
                    res, cost,
                    where + " aggression " + std::to_string(int(a)));
            }

            TrialOptions trials;
            trials.layoutTrials = 4;
            trials.forwardBackwardPasses = 1;
            trials.swapTrials = 2;
            trials.trialAggression =
                mirageAggressionMix(trials.layoutTrials);
            trials.pass.costModel = &cost;
            trials.seed = 31 + uint64_t(i);
            for (PostSelect post : {PostSelect::Swaps, PostSelect::Depth}) {
                for (int threads : {1, 4}) {
                    trials.postSelect = post;
                    trials.threads = threads;
                    expectEstimateMatchesMetrics(
                        routeWithTrials(consolidated, topo, trials), cost,
                        where + " post-select " +
                            std::to_string(int(post)) + " threads " +
                            std::to_string(threads));
                }
            }
        }
    }
}

TEST(ScoringEquivalence, CountersTrackRealWork)
{
    // The counters feeding the perf trajectory must be non-trivial and
    // self-consistent: every stall scores at least one candidate, the
    // extended-set cache fires on congested circuits, and mirror
    // outlooks appear exactly when aggression allows them.
    auto cost = monodromy::makeRootIswapCostModel(2);
    auto circ = circuit::consolidateBlocks(bench::qft(10, true));
    auto line = CouplingMap::line(10);

    PassOptions opts;
    opts.costModel = &cost;
    RouteResult sabre = routePass(circ, line, layout::Layout(10), opts);
    EXPECT_GT(sabre.counters.stallSteps, 0u);
    EXPECT_GE(sabre.counters.heuristicEvals,
              sabre.counters.stallSteps);
    EXPECT_EQ(sabre.counters.swapCandidates,
              sabre.counters.heuristicEvals);
    EXPECT_GT(sabre.counters.extSetReuses, 0u);
    EXPECT_EQ(sabre.counters.mirrorOutlooks, 0u);
    EXPECT_EQ(uint64_t(sabre.swapsAdded), sabre.counters.stallSteps);

    opts.aggression = Aggression::Equal;
    RouteResult mir = routePass(circ, line, layout::Layout(10), opts);
    EXPECT_EQ(mir.counters.mirrorOutlooks,
              uint64_t(mir.mirrorCandidates));
    EXPECT_EQ(mir.counters.heuristicEvals,
              mir.counters.swapCandidates +
                  2 * mir.counters.mirrorOutlooks);
}

TEST(ScoringEquivalence, TrialCountersAggregateDeterministically)
{
    // routeWithTrials reports the routing work of the WHOLE grid; the
    // sum must be identical for every thread count.
    auto circ = bench::qft(8, true);
    auto grid = CouplingMap::grid(3, 3);
    TrialOptions opts;
    opts.layoutTrials = 3;
    opts.swapTrials = 2;
    opts.seed = 99;

    opts.threads = 1;
    RouteResult serial = routeWithTrials(circ, grid, opts);
    opts.threads = 4;
    RouteResult parallel = routeWithTrials(circ, grid, opts);
    EXPECT_TRUE(serial.counters == parallel.counters);
    EXPECT_GT(serial.counters.stallSteps, 0u);
    // The grid ran more passes than the winning one alone.
    EXPECT_GT(serial.counters.stallSteps,
              uint64_t(serial.swapsAdded));
}

TEST(ScopedSwapTest, AppliesAndRestores)
{
    layout::Layout layout(5);
    layout.swapPhysical(0, 3);
    const layout::Layout before = layout;
    {
        layout::ScopedSwap guard(layout, 1, 4);
        EXPECT_EQ(layout.toLogical(1), before.toLogical(4));
        EXPECT_EQ(layout.toLogical(4), before.toLogical(1));
        EXPECT_FALSE(layout == before);
    }
    EXPECT_TRUE(layout == before);
}
