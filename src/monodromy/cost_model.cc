/**
 * @file
 * Cost model implementation: the basis SWAP cost and the decoherence
 * fidelity model of Eq. 2.
 */

#include "monodromy/cost_model.hh"

#include <cmath>

#include "weyl/catalog.hh"

namespace mirage::monodromy {

double
decayFidelity(double duration)
{
    // Lifetime normalized so that a unit-duration pulse has fidelity 0.99:
    // F = e^{-d/T} with T = -1/ln(0.99) (Eq. 2 with the paper's anchors).
    static const double inv_lifetime = -std::log(0.99);
    return std::exp(-duration * inv_lifetime);
}

CostModel::CostModel(const CoverageSet &coverage) : coverage_(&coverage)
{
    swapCost_ = coverage_->minK(weyl::coordSWAP()) * basisDuration();
}

CostModel
makeRootIswapCostModel(int n)
{
    return CostModel(coverageForRootIswap(n));
}

} // namespace mirage::monodromy
