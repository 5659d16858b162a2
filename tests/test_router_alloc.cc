/**
 * @file
 * Allocation budget of the routing trial grid.
 *
 * A routing pass records compact decisions, and only the post-selected
 * winner becomes a Circuit, so the allocations an extra layout trial
 * costs must not grow with the circuit: doubling the circuit may add
 * only the step list's extra growth, not one Gate per routed gate. A
 * layout trial runs its swap trials on the scratch arena and step
 * buffer its refinement passes used, so an extra swap trial costs about
 * as few allocations as a refinement pass. The routing plans are built
 * by one scan of the circuit, so one whole call costs about one
 * allocation per routed gate (the winner's own), not a copy of the
 * circuit per walk direction.
 *
 * This binary replaces the global operator new to count allocations, so
 * it holds nothing but these tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#include "bench_circuits/generators.hh"
#include "circuit/consolidate.hh"
#include "mirage/pipeline.hh"
#include "monodromy/cost_model.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

void *
countedMalloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

} // namespace

// Every non-aligned form is replaced, so each pair (including the
// nothrow and array forms a sanitizer runtime would otherwise supply)
// allocates and frees through the same malloc.
void *
operator new(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace mirage;
using namespace mirage::router;
using circuit::Circuit;
using topology::CouplingMap;

namespace {

constexpr int kFwdBwd = 1;
constexpr int kSwapTrials = 2;
/** Passes one more layout trial runs: its refinements and swap trials. */
constexpr int kPassesPerTrial = 2 * kFwdBwd + kSwapTrials;

/**
 * Allocations of one serial routeWithTrials call, net of the one routed
 * Circuit it returns (counted as a copy of it): an extra trial may
 * change which pass wins, and the winner's size is not what this
 * measures.
 */
int64_t
allocationsToRoute(const Circuit &circ, const CouplingMap &topo,
                   const monodromy::CostModel &cost, int layout_trials,
                   int swap_trials = kSwapTrials)
{
    TrialOptions opts;
    opts.layoutTrials = layout_trials;
    opts.forwardBackwardPasses = kFwdBwd;
    opts.swapTrials = swap_trials;
    opts.postSelect = PostSelect::Swaps;
    opts.trialAggression = {Aggression::Equal};
    opts.pass.costModel = &cost;
    opts.seed = 77;
    opts.threads = 1;
    const uint64_t before = g_allocations.load();
    RouteResult res = routeWithTrials(circ, topo, opts);
    const uint64_t routed = g_allocations.load();
    Circuit copy = res.routed;
    const uint64_t copied = g_allocations.load();
    EXPECT_FALSE(copy.empty());
    return int64_t(routed - before) - int64_t(copied - routed);
}

/**
 * Allocations of one serial one-trial routeWithTrials call, the routed
 * Circuit it returns included; `routed_gates` receives that Circuit's
 * size.
 */
int64_t
allocationsOfOneCall(const Circuit &circ, const CouplingMap &topo,
                     const monodromy::CostModel &cost, size_t &routed_gates)
{
    TrialOptions opts;
    opts.layoutTrials = 1;
    opts.forwardBackwardPasses = 1;
    opts.swapTrials = 1;
    opts.postSelect = PostSelect::Depth;
    opts.trialAggression = {Aggression::Equal};
    opts.pass.costModel = &cost;
    opts.seed = 77;
    opts.threads = 1;
    const uint64_t before = g_allocations.load();
    RouteResult res = routeWithTrials(circ, topo, opts);
    const uint64_t after = g_allocations.load();
    routed_gates = res.routed.size();
    return int64_t(after - before);
}

/** Allocations one added layout trial costs. */
int64_t
allocationsPerTrial(const Circuit &circ, const CouplingMap &topo,
                    const monodromy::CostModel &cost)
{
    return allocationsToRoute(circ, topo, cost, 3) -
           allocationsToRoute(circ, topo, cost, 2);
}

Circuit
qftN18()
{
    return circuit::consolidateBlocks(mirage_pass::unrollThreeQubit(
        bench::benchmarkByName("qft_n18").make()));
}

} // namespace

TEST(RouterAllocations, ExtraSwapTrialReusesTheTrialArena)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    auto grid = CouplingMap::grid(8, 8);
    const Circuit circ = qftN18();
    constexpr int kLayoutTrials = 2;

    // One more swap trial adds one pass per layout trial. A pass that
    // regrew its own scratch arena and step list would cost over a
    // hundred allocations here; on its trial's arena it pays only for
    // its per-pass state (layouts, in-degrees, decay, front).
    const int64_t added =
        allocationsToRoute(circ, grid, cost, kLayoutTrials, 3) -
        allocationsToRoute(circ, grid, cost, kLayoutTrials, 2);
    std::cout << "allocations per added swap-trial pass: "
              << added / kLayoutTrials << "\n";
    EXPECT_GT(added, 0);
    EXPECT_LE(added, 16 * kLayoutTrials);
}

TEST(RouterAllocations, ExtraTrialCostDoesNotGrowWithTheCircuit)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    auto grid = CouplingMap::grid(8, 8);
    Circuit single = qftN18();
    Circuit doubled = single;
    for (const auto &g : single.gates())
        doubled.append(g);

    const int64_t per_trial_single = allocationsPerTrial(single, grid, cost);
    const int64_t per_trial_doubled =
        allocationsPerTrial(doubled, grid, cost);
    const int64_t added_per_pass =
        (per_trial_doubled - per_trial_single) / kPassesPerTrial;
    std::cout << "allocations per added trial: " << per_trial_single
              << " (qft_n18), " << per_trial_doubled
              << " (doubled); doubling adds " << added_per_pass
              << " per pass (" << single.size()
              << " gates in the single circuit)\n";
    EXPECT_GT(per_trial_single, 0);
    EXPECT_LE(per_trial_doubled - per_trial_single, 8 * kPassesPerTrial);
}

TEST(RouterAllocations, OneCallCostsAboutOneAllocationPerRoutedGate)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    auto grid = CouplingMap::grid(8, 8);
    Circuit single = qftN18();
    Circuit doubled = single;
    for (const auto &g : single.gates())
        doubled.append(g);

    size_t single_gates = 0;
    size_t doubled_gates = 0;
    const int64_t single_allocs =
        allocationsOfOneCall(single, grid, cost, single_gates);
    const int64_t doubled_allocs =
        allocationsOfOneCall(doubled, grid, cost, doubled_gates);
    ASSERT_GT(doubled_gates, single_gates);
    const int64_t added_gates = int64_t(doubled_gates - single_gates);
    const int64_t added_allocs = doubled_allocs - single_allocs;
    std::cout << "allocations per call: " << single_allocs << " ("
              << single_gates << " routed gates), " << doubled_allocs
              << " (" << doubled_gates << " routed gates, doubled)\n";
    // Copying the circuit (a Gate and its operand vector per gate) for
    // each walk direction would cost several allocations per gate.
    EXPECT_LE(added_allocs, 2 * added_gates);
}
