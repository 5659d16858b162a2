/**
 * @file
 * End-to-end transpilation pipeline (paper Section V).
 *
 * Stages: input cleaning (3Q unrolling, barrier removal), two-qubit block
 * consolidation with coordinate annotation, VF2 SWAP-free layout check,
 * SABRE or MIRAGE routing with independent trials, and polytope-based
 * metrics. The baseline configuration ("Qiskit-sqrt(iSWAP)") is SABRE
 * with SWAP-count post-selection; MIRAGE adds the mirror intermediate
 * layer (mixed aggression) and depth post-selection.
 */

#ifndef MIRAGE_MIRAGE_PIPELINE_HH
#define MIRAGE_MIRAGE_PIPELINE_HH

#include <vector>

#include "circuit/circuit.hh"
#include "common/deadline.hh"
#include "common/exec.hh"
#include "decomp/equivalence.hh"
#include "mirage/depth_metric.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

namespace mirage::mirage_pass {

/** Which router drives the flow. */
enum class Flow
{
    SabreBaseline,  ///< no mirrors, post-select on SWAP count
    MirageSwaps,    ///< mirrors on, post-select on SWAP count
    MirageDepth,    ///< mirrors on, post-select on estimated depth
};

/** Pipeline options. */
struct TranspileOptions
{
    /** Basis gate: the n-th root of iSWAP. */
    int rootDegree = 2;
    Flow flow = Flow::MirageDepth;
    /** Fixed aggression level; -1 = the paper's 5/45/45/5 mix. */
    int fixedAggression = -1;
    int layoutTrials = 4;
    int forwardBackwardPasses = 2;
    int swapTrials = 4;
    bool tryVf2 = true;
    uint64_t seed = 20240229;
    /**
     * Worker threads for the routing-trial grid: 1 = serial (default),
     * 0 = hardware concurrency, N = exactly N. The transpiled circuit is
     * bit-identical for every setting (see router::TrialOptions).
     */
    int threads = 1;
    /**
     * Run basis translation as a final stage: lower the routed circuit
     * to RootISWAP + 1Q gates (decomp::EquivalenceLibrary::translate)
     * and report MEASURED pulse metrics next to the polytope estimates.
     */
    bool lowerToBasis = false;
    /**
     * Optional externally owned equivalence library (must match
     * rootDegree). Share one instance across calls to reuse fitted
     * decompositions -- fitting dominates lowering cost, and a shared
     * or warm-loaded cache never changes output (fits are pure
     * functions of the target unitary). When null and lowerToBasis is
     * set, transpile() builds a private library for the call.
     */
    decomp::EquivalenceLibrary *equivalenceLibrary = nullptr;
    /**
     * Optional externally owned trial-grid thread pool (overrides
     * `threads`). Long-lived callers -- the serve engine above all --
     * keep one warm pool across many transpile() calls instead of
     * paying spin-up per request. Like `threads`, the pool never
     * changes output, only throughput.
     */
    exec::ThreadPool *pool = nullptr;
    /**
     * Cooperative per-request deadline. Checked at stage boundaries, at
     * every routing stall step, and at every lowering block/fit round;
     * expiry aborts the pipeline with DeadlineError. Never changes the
     * content of a completed result (it feeds no randomness), so serve
     * excludes it from the result-cache key.
     */
    Deadline deadline{};
};

/** Pipeline result. */
struct TranspileResult
{
    circuit::Circuit routed;
    layout::Layout initial;
    layout::Layout final;
    CircuitMetrics metrics;
    int swapsAdded = 0;
    int mirrorsAccepted = 0;
    int mirrorCandidates = 0;
    bool usedVf2 = false;
    /**
     * Routing-phase wall time (the routeWithTrials call; zero on the
     * VF2 short-circuit path) and the deterministic hot-path work
     * counters summed over the whole trial grid. The counters are
     * machine- and thread-count-invariant, which is what the perf
     * trajectory (BENCH_fig13.json) and the CI bench-smoke gate track.
     */
    double routingMs = 0;
    router::RoutingCounters routingCounters;

    /** True when TranspileOptions::lowerToBasis ran (fields below set). */
    bool loweredToBasis = false;
    /** The routed circuit lowered to RootISWAP + 1Q gates. */
    circuit::Circuit lowered;
    /** Translation statistics (fits, cache hits, worst infidelity). */
    decomp::TranslateStats translateStats;
    /**
     * Metrics measured on `lowered` (one pulse per RootISWAP) -- the
     * measured counterpart of the polytope estimate in `metrics`.
     */
    CircuitMetrics loweredMetrics;

    double
    mirrorAcceptRate() const
    {
        return mirrorCandidates ? double(mirrorsAccepted) / mirrorCandidates
                                : 0.0;
    }
};

/** Unroll CCX/CSWAP into 1Q + CX gates (standard decompositions). */
circuit::Circuit unrollThreeQubit(const circuit::Circuit &input);

/** Full pipeline. */
TranspileResult transpile(const circuit::Circuit &input,
                          const topology::CouplingMap &coupling,
                          const TranspileOptions &opts = {});

} // namespace mirage::mirage_pass

#endif // MIRAGE_MIRAGE_PIPELINE_HH
