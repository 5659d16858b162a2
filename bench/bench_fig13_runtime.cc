/**
 * @file
 * Figure 13 reproduction: transpiler runtime scaling and the caching
 * ablation. Routes QFT instances of growing size on an 8x8 grid and
 * times (a) the SABRE baseline, (b) MIRAGE with consolidation's
 * coordinate cache, and (c) MIRAGE with that cache disabled
 * (ConsolidateOptions::useCoordinateCache) -- reproducing the Section
 * VI-C observation that caching keeps MIRAGE's runtime competitive with
 * plain SABRE.
 *
 * BM_TrialEngineSerial / BM_TrialEngineParallel time the dominant
 * transpile cost -- the full routeWithTrials grid -- with threads=1
 * versus all hardware threads. Output is bit-identical between the two
 * (counter-based RNG streams); on an N-core machine the parallel run
 * should approach N x. The label reports the thread count used.
 *
 * BM_LoweringCold / BM_LoweringWarm / BM_LoweringWarmStart time the
 * basis-translation stage: a cold equivalence library (every distinct
 * block is a numerical fit), a warm shared library (pure cache hits),
 * and a fresh library warm-started from a saved cache (loadCache +
 * pure hits -- the cross-process caching win).
 *
 * Built on google-benchmark; pass --benchmark_filter=... to narrow runs.
 */

#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_circuits/generators.hh"
#include "circuit/consolidate.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "monodromy/cost_model.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

using namespace mirage;

namespace {

const topology::CouplingMap &
grid64()
{
    static const auto g = topology::CouplingMap::grid(8, 8);
    return g;
}

void
routeQft(benchmark::State &state, router::Aggression aggression,
         bool cached,
         router::ScoreMode score_mode = router::ScoreMode::Delta)
{
    const int n = int(state.range(0));
    auto circ = bench::qft(n, true);

    // Coverage construction is one-time; exclude it from the timing.
    const monodromy::CostModel cost = monodromy::makeRootIswapCostModel(2);

    for (auto _ : state) {
        circuit::ConsolidateOptions copts;
        copts.useCoordinateCache = cached;
        auto consolidated = circuit::consolidateBlocks(circ, copts);
        router::PassOptions opts;
        opts.aggression = aggression;
        opts.costModel = &cost;
        opts.seed = 42;
        opts.scoreMode = score_mode;
        Rng rng(7);
        auto init = layout::Layout::random(64, rng);
        auto res = router::routePass(consolidated, grid64(), init, opts);
        benchmark::DoNotOptimize(res.swapsAdded);
    }
    state.SetLabel(cached ? "cached" : "uncached");
}

void
BM_SabreBaseline(benchmark::State &state)
{
    routeQft(state, router::Aggression::None, true);
}

void
BM_MirageCached(benchmark::State &state)
{
    routeQft(state, router::Aggression::Equal, true);
}

void
BM_MirageUncached(benchmark::State &state)
{
    routeQft(state, router::Aggression::Equal, false);
}

/**
 * Pure routing-pass timing (consolidation hoisted out of the loop,
 * unlike routeQft which deliberately includes it for the cache
 * ablation): ScoreMode::Delta vs the reference full-rescan scorer.
 * The Naive/Delta ratio is the scoring rewrite's speedup; the two
 * produce bit-identical circuits (enforced by test_router_scoring).
 */
void
routeOnly(benchmark::State &state, router::Aggression aggression,
          router::ScoreMode score_mode)
{
    const int n = int(state.range(0));
    monodromy::CostModel cost = monodromy::makeRootIswapCostModel(2);
    auto consolidated = circuit::consolidateBlocks(bench::qft(n, true));

    router::PassOptions opts;
    opts.aggression = aggression;
    opts.costModel = &cost;
    opts.seed = 42;
    opts.scoreMode = score_mode;
    Rng rng(7);
    auto init = layout::Layout::random(64, rng);

    for (auto _ : state) {
        auto res = router::routePass(consolidated, grid64(), init, opts);
        benchmark::DoNotOptimize(res.swapsAdded);
    }
    state.SetLabel(score_mode == router::ScoreMode::Delta ? "delta"
                                                          : "naive");
}

void
BM_SabreDeltaScoring(benchmark::State &state)
{
    routeOnly(state, router::Aggression::None, router::ScoreMode::Delta);
}

void
BM_SabreNaiveScoring(benchmark::State &state)
{
    routeOnly(state, router::Aggression::None, router::ScoreMode::Naive);
}

void
BM_MirageDeltaScoring(benchmark::State &state)
{
    routeOnly(state, router::Aggression::Equal, router::ScoreMode::Delta);
}

void
BM_MirageNaiveScoring(benchmark::State &state)
{
    routeOnly(state, router::Aggression::Equal, router::ScoreMode::Naive);
}

/** The full trial grid (the Fig. 13 workload's dominant cost). */
void
trialEngine(benchmark::State &state, int threads)
{
    const int n = int(state.range(0));
    auto circ = bench::qft(n, true);
    monodromy::CostModel cost = monodromy::makeRootIswapCostModel(2);
    circuit::ConsolidateOptions copts;
    auto consolidated = circuit::consolidateBlocks(circ, copts);
    // Warm the polytope LRU so both variants measure routing, not
    // first-touch coverage queries.
    {
        router::TrialOptions warm;
        warm.layoutTrials = 1;
        warm.swapTrials = 1;
        warm.pass.costModel = &cost;
        router::routeWithTrials(consolidated, grid64(), warm);
    }

    router::TrialOptions opts;
    opts.layoutTrials = 8;
    opts.swapTrials = 4;
    opts.postSelect = router::PostSelect::Depth;
    opts.trialAggression = router::mirageAggressionMix(opts.layoutTrials);
    opts.pass.costModel = &cost;
    opts.seed = 42;
    opts.threads = threads;

    for (auto _ : state) {
        auto res = router::routeWithTrials(consolidated, grid64(), opts);
        benchmark::DoNotOptimize(res.swapsAdded);
    }
    state.SetLabel("threads=" +
                   std::to_string(exec::resolveThreads(threads)));
}

void
BM_TrialEngineSerial(benchmark::State &state)
{
    trialEngine(state, 1);
}

void
BM_TrialEngineParallel(benchmark::State &state)
{
    trialEngine(state, 0); // all hardware threads
}

/** Consolidated QFT(n) blocks, the lowering workload. */
circuit::Circuit
loweringInput(int n)
{
    return circuit::consolidateBlocks(bench::qft(n, true));
}

/** Cold: a fresh library per iteration; every distinct block is a fit. */
void
BM_LoweringCold(benchmark::State &state)
{
    auto circ = loweringInput(int(state.range(0)));
    for (auto _ : state) {
        decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
        auto lowered = lib.translate(circ);
        benchmark::DoNotOptimize(lowered.size());
    }
    state.SetLabel("cold (fits)");
}

/** Warm: one shared library, fitted once outside the timed region. */
void
BM_LoweringWarm(benchmark::State &state)
{
    auto circ = loweringInput(int(state.range(0)));
    decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
    (void)lib.translate(circ);
    for (auto _ : state) {
        auto lowered = lib.translate(circ);
        benchmark::DoNotOptimize(lowered.size());
    }
    state.SetLabel("warm (cache hits)");
}

/**
 * Warm start: a fresh library per iteration loading a saved cache --
 * what a new process pays instead of refitting (loadCache + hits).
 */
void
BM_LoweringWarmStart(benchmark::State &state)
{
    auto circ = loweringInput(int(state.range(0)));
    std::string saved;
    {
        decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
        (void)lib.translate(circ);
        std::ostringstream out;
        lib.saveCache(out);
        saved = out.str();
    }
    for (auto _ : state) {
        decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
        bool ok = lib.loadCache(saved);
        auto lowered = lib.translate(circ);
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(lowered.size());
    }
    state.SetLabel("loadCache + hits");
}

} // namespace

BENCHMARK(BM_SabreBaseline)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MirageCached)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MirageUncached)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SabreDeltaScoring)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SabreNaiveScoring)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MirageDeltaScoring)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MirageNaiveScoring)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrialEngineSerial)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrialEngineParallel)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoweringCold)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoweringWarm)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoweringWarmStart)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
