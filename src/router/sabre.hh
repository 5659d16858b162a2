/**
 * @file
 * SABRE routing (Li, Ding, Xie; ASPLOS'19) -- the baseline router -- and
 * the shared single-pass engine that MIRAGE extends with its intermediate
 * mirror layer (paper Fig. 7).
 *
 * One routing pass walks the circuit DAG with a front layer of
 * dependency-free gates; executable gates (operands adjacent under the
 * current layout) are mapped immediately, and when the front stalls the
 * router inserts the SWAP minimizing the distance heuristic
 *   H = 1/|F| sum_F d(gate) + W/|E| sum_E d(gate)
 * damped by per-qubit decay factors that promote parallelism.
 *
 * Layout selection runs independent random trials refined by
 * forward/backward routing passes, post-selected either by SWAP count
 * (stock SABRE) or by the estimated-depth metric (MIRAGE, Section IV-B).
 */

#ifndef MIRAGE_ROUTER_SABRE_HH
#define MIRAGE_ROUTER_SABRE_HH

#include <optional>

#include "circuit/circuit.hh"
#include "common/deadline.hh"
#include "common/exec.hh"
#include "layout/layout.hh"
#include "monodromy/cost_model.hh"
#include "topology/coupling.hh"

namespace mirage::router {

/** Mirror aggression levels (paper Algorithm 2). */
enum class Aggression
{
    None = 0,   ///< never accept a mirror (plain SABRE behavior)
    Lower = 1,  ///< accept when the trial cost is strictly lower
    Equal = 2,  ///< accept when the trial cost does not increase
    Always = 3, ///< always accept
};

/** Post-selection metric across routing trials. */
enum class PostSelect
{
    Swaps, ///< fewest inserted SWAP gates (stock SABRE)
    Depth, ///< lowest estimated pulse depth (MIRAGE, Section IV-B)
};

/**
 * How swap candidates and mirror outlooks are scored.
 *
 * Both modes compute the SABRE heuristic from exact integer distance
 * sums and combine them with one shared floating-point expression, so
 * their outputs are bit-identical by construction -- the equivalence is
 * enforced by test over the whole Table III suite. Delta is the
 * production path; Naive is the allocation-heavy reference kept as a
 * runtime option (no #ifdef) so the regression test can always compare
 * the two inside a single binary.
 */
enum class ScoreMode
{
    Delta, ///< incremental: per-step base sums + per-candidate deltas
    Naive, ///< reference: full front/extended rescan per candidate
};

/** Options for one routing pass. */
struct PassOptions
{
    Aggression aggression = Aggression::None;
    /** Cost model used for mirror decisions and depth estimation; may be
     * null only when aggression == None. */
    const monodromy::CostModel *costModel = nullptr;
    uint64_t seed = 1;
    /** Test hook: swap-candidate/mirror scoring implementation. */
    ScoreMode scoreMode = ScoreMode::Delta;
    /**
     * Cooperative cancellation: checked once per stall step (the unit
     * of routing progress), so an expired request aborts the trial grid
     * within one swap decision instead of wedging a worker. Inactive by
     * default -- the check is a pointer test.
     */
    Deadline deadline;
};

/**
 * Deterministic work counters for the routing hot path. All counts are
 * pure functions of (circuit, coupling, options, seed) -- independent of
 * thread count, machine, and build type -- which makes them a noise-free
 * perf-trajectory signal: CI fails when heuristic evaluations regress
 * versus the checked-in BENCH_fig13.json baseline, no timer involved.
 */
struct RoutingCounters
{
    uint64_t stallSteps = 0;       ///< SWAP-selection rounds
    uint64_t swapCandidates = 0;   ///< candidate SWAPs enumerated
    uint64_t heuristicEvals = 0;   ///< candidate-layout scorings
                                   ///< (stall candidates + 2 per mirror)
    uint64_t mirrorOutlooks = 0;   ///< mirror decisions scored
    uint64_t extSetBuilds = 0;     ///< extended-set BFS walks
    uint64_t extSetReuses = 0;     ///< stall steps reusing the cached set

    double
    evalsPerStall() const
    {
        return stallSteps ? double(heuristicEvals) / double(stallSteps)
                          : 0.0;
    }

    void
    add(const RoutingCounters &o)
    {
        stallSteps += o.stallSteps;
        swapCandidates += o.swapCandidates;
        heuristicEvals += o.heuristicEvals;
        mirrorOutlooks += o.mirrorOutlooks;
        extSetBuilds += o.extSetBuilds;
        extSetReuses += o.extSetReuses;
    }

    bool
    operator==(const RoutingCounters &o) const
    {
        return stallSteps == o.stallSteps &&
               swapCandidates == o.swapCandidates &&
               heuristicEvals == o.heuristicEvals &&
               mirrorOutlooks == o.mirrorOutlooks &&
               extSetBuilds == o.extSetBuilds &&
               extSetReuses == o.extSetReuses;
    }
};

/** Result of routing a circuit onto a coupling map. */
struct RouteResult
{
    /**
     * Physical circuit (SWAPs materialized). Passes record compact
     * decisions; this is built once per call, from the post-selected
     * winner's decisions for routeWithTrials.
     */
    circuit::Circuit routed;
    layout::Layout initial;  ///< logical -> physical before the circuit
    layout::Layout final;    ///< logical -> physical after the circuit
    int swapsAdded = 0;
    int mirrorsAccepted = 0;
    int mirrorCandidates = 0;
    /**
     * Estimated pulse depth/cost when a cost model was supplied:
     * accumulated as the pass emits, bit-identical to
     * mirage_pass::computeMetrics(routed, cost model).
     */
    double estDepth = 0;
    double estTotalCost = 0;
    /**
     * Hot-path work counters. For routePass(): this pass only. For
     * routeWithTrials(): the SUM over every pass of the whole trial grid
     * (layout refinement + swap trials), deterministic for any thread
     * count -- the routing-phase cost of the call, not of the winner.
     */
    RoutingCounters counters;
};

/** One deterministic routing pass from a fixed initial layout. */
RouteResult routePass(const circuit::Circuit &circuit,
                      const topology::CouplingMap &coupling,
                      const layout::Layout &initial,
                      const PassOptions &opts);

/**
 * Options for the full multi-trial flow (SabreLayout-style).
 *
 * Seed precedence: routeWithTrials derives EVERY random decision from
 * TrialOptions::seed via counter-based streams keyed by the layout-trial
 * index -- the random initial layout of trial t and the pass seeds of
 * its forward/backward refinements and swap trials are all
 * deriveSeed(seed, t, counter) values. `pass.seed` is therefore ignored
 * by routeWithTrials (it only matters for direct routePass calls); this
 * central derivation means callers cannot accidentally reuse one pass
 * seed across swap trials, and results are bit-identical for any
 * `threads` value.
 */
struct TrialOptions
{
    int layoutTrials = 4;
    int forwardBackwardPasses = 2;
    int swapTrials = 4;
    PostSelect postSelect = PostSelect::Swaps;
    /** Per-trial aggression; empty = all None (plain SABRE). A MIRAGE mix
     * of 5/45/45/5 percent across levels 0..3 is built by
     * mirageAggressionMix(). */
    std::vector<Aggression> trialAggression;
    PassOptions pass;
    uint64_t seed = 12345;
    /**
     * Worker threads for the trial grid: 1 = serial on the calling
     * thread (default), 0 = hardware concurrency, N = exactly N workers.
     * Output is bit-identical for every setting.
     */
    int threads = 1;
    /**
     * Optional externally owned pool (overrides `threads`); lets
     * long-lived callers (the serve engine, suite sweeps) share workers
     * across circuits instead of spawning a pool per call.
     */
    exec::ThreadPool *pool = nullptr;
};

/** The paper's 5/45/45/5 aggression distribution over `trials` slots. */
std::vector<Aggression> mirageAggressionMix(int trials);

/** Full flow: random layouts, fwd/bwd refinement, post-selection. */
RouteResult routeWithTrials(const circuit::Circuit &circuit,
                            const topology::CouplingMap &coupling,
                            const TrialOptions &opts);

} // namespace mirage::router

#endif // MIRAGE_ROUTER_SABRE_HH
