/**
 * @file
 * Numerical optimizers: Adam for the decomposition ansatz (analytic
 * gradients) and a generic Nelder-Mead simplex used both for polishing
 * and for derivative-free objectives (e.g. polytope support functions).
 */

#ifndef MIRAGE_DECOMP_OPTIMIZE_HH
#define MIRAGE_DECOMP_OPTIMIZE_HH

#include <functional>
#include <vector>

#include "common/rng.hh"
#include "linalg/matrix.hh"

namespace mirage::decomp {

using linalg::Mat4;

/** Result of an ansatz optimization. */
struct AnsatzFit
{
    std::vector<double> params;
    double fidelity = 0; ///< process fidelity in [0, 1]
    int evaluations = 0;
};

/** Options for fitAnsatz. */
struct FitOptions
{
    int restarts = 3;
    int adamIterations = 300;
    /** Early-exit once 1 - fidelity < this. */
    double targetInfidelity = 1e-10;
    /** Run a Nelder-Mead polish on the best start. */
    bool polish = true;
    /**
     * Optional warm start: when the size matches the ansatz parameter
     * count, the FIRST restart begins here instead of at a random
     * point (remaining restarts stay random). Used by the continuation
     * fallback for ill-conditioned near-identity targets.
     */
    std::vector<double> initialGuess;
};

/**
 * Fit the interleaved ansatz (k applications of basis) to the target in
 * process fidelity. Multi-start Adam with analytic gradients plus an
 * optional simplex polish.
 */
AnsatzFit fitAnsatz(const Mat4 &target, const Mat4 &basis, int k, Rng &rng,
                    const FitOptions &opts = {});

/** Generic objective for Nelder-Mead. */
using ObjectiveFn = std::function<double(const std::vector<double> &)>;

/**
 * Nelder-Mead minimization. Returns the best point found; `f` is called
 * at most max_evals times.
 */
std::vector<double> nelderMead(const ObjectiveFn &f,
                               std::vector<double> start, double step,
                               int max_evals, double *best_value = nullptr);

} // namespace mirage::decomp

#endif // MIRAGE_DECOMP_OPTIMIZE_HH
