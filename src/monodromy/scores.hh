/**
 * @file
 * Haar scores: expected decomposition cost of a Haar-random two-qubit
 * unitary in a given basis (paper Section III-C, Tables I and II, Fig. 5).
 *
 * The exact scores integrate the Haar density over the coverage polytopes
 * (with or without mirror extension). The approximate scores run the
 * paper's Algorithm 1: Monte Carlo sampling with numerical-decomposition
 * checks that accept a cheaper depth whenever the total fidelity
 * (circuit decay x decomposition accuracy, Eq. 2) improves.
 */

#ifndef MIRAGE_MONODROMY_SCORES_HH
#define MIRAGE_MONODROMY_SCORES_HH

#include <functional>

#include "monodromy/coverage.hh"

namespace mirage::monodromy {

/** A Haar score together with the matching average total fidelity. */
struct HaarScore
{
    double score = 0;    ///< expected pulse cost (iSWAP units)
    double fidelity = 0; ///< expected total fidelity
};

/**
 * Exact Haar score by polytope integration. With `mirrors`, the coverage
 * regions are mirror-extended (a free output permutation is allowed).
 */
HaarScore haarScoreExact(const CoverageSet &coverage, bool mirrors);

/** Options for the Monte Carlo estimator (Algorithm 1). */
struct MonteCarloOptions
{
    int iterations = 1000;
    bool mirrors = false;
    /** Allow approximate decomposition when it improves total fidelity. */
    bool approximate = false;
    uint64_t seed = 0xA15EULL;
    /** Running-average callback: (iteration, running score). */
    std::function<void(int, double)> progress;
};

/** Monte Carlo Haar score (Algorithm 1). */
HaarScore haarScoreMonteCarlo(const CoverageSet &coverage,
                              const MonteCarloOptions &opts);

} // namespace mirage::monodromy

#endif // MIRAGE_MONODROMY_SCORES_HH
