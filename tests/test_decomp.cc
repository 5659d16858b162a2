/**
 * @file
 * Tests for the numerical decomposition engine and the equivalence
 * library / basis translation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "circuit/sim.hh"
#include "decomp/ansatz.hh"
#include "decomp/equivalence.hh"
#include "decomp/numerical.hh"
#include "decomp/optimize.hh"
#include "linalg/random_unitary.hh"
#include "monodromy/coverage.hh"
#include "weyl/can.hh"
#include "weyl/catalog.hh"

using namespace mirage;
using namespace mirage::decomp;
using linalg::Mat4;

TEST(Ansatz, GradientMatchesFiniteDifference)
{
    Rng rng(1);
    Mat4 target = linalg::randomSU4(rng);
    Mat4 basis = weyl::gateRootISWAP(2);
    const int k = 2;
    std::vector<double> p(size_t(ansatzParamCount(k)));
    for (auto &x : p)
        x = rng.uniform(-1.5, 1.5);

    std::vector<double> grad;
    ansatzFidelity(target, basis, k, p, &grad);

    const double h = 1e-6;
    for (size_t i = 0; i < p.size(); i += 5) {
        auto pp = p;
        pp[i] += h;
        double up = ansatzFidelity(target, basis, k, pp, nullptr);
        pp[i] -= 2 * h;
        double dn = ansatzFidelity(target, basis, k, pp, nullptr);
        double fd = (up - dn) / (2 * h);
        EXPECT_NEAR(grad[i], fd, 1e-5) << "param " << i;
    }
}

TEST(Ansatz, BuildMatchesFidelityEvaluation)
{
    Rng rng(2);
    Mat4 basis = weyl::gateRootISWAP(3);
    std::vector<double> p(size_t(ansatzParamCount(2)));
    for (auto &x : p)
        x = rng.uniform(-2, 2);
    Mat4 v = buildAnsatz(basis, 2, p);
    double fid = ansatzFidelity(v, basis, 2, p, nullptr);
    EXPECT_NEAR(fid, 1.0, 1e-12);
    EXPECT_TRUE(v.isUnitary(1e-10));
}

TEST(Fit, CnotIntoTwoSqrtIswap)
{
    // Paper Fig. 1a: CNOT decomposes into two sqrt(iSWAP).
    Rng rng(3);
    AnsatzFit fit =
        fitAnsatz(weyl::gateCX(), weyl::gateRootISWAP(2), 2, rng);
    EXPECT_GT(fit.fidelity, 1.0 - 1e-8);
}

TEST(Fit, CnsIntoTwoSqrtIswap)
{
    // Paper Fig. 1b: CNOT+SWAP also needs only two sqrt(iSWAP).
    Rng rng(4);
    AnsatzFit fit =
        fitAnsatz(weyl::gateCNS(), weyl::gateRootISWAP(2), 2, rng);
    EXPECT_GT(fit.fidelity, 1.0 - 1e-8);
}

TEST(Fit, SwapNeedsThreeSqrtIswap)
{
    Rng rng(5);
    AnsatzFit two =
        fitAnsatz(weyl::gateSWAP(), weyl::gateRootISWAP(2), 2, rng);
    EXPECT_LT(two.fidelity, 0.999); // unreachable at k=2
    AnsatzFit three =
        fitAnsatz(weyl::gateSWAP(), weyl::gateRootISWAP(2), 3, rng);
    EXPECT_GT(three.fidelity, 1.0 - 1e-7);
}

TEST(Fit, MinimalDepthSearch)
{
    Rng rng(6);
    Decomposition d = decomposeMinimal(weyl::gateCX(),
                                       weyl::gateRootISWAP(2), 4,
                                       1.0 - 1e-8, rng);
    EXPECT_EQ(d.k, 2);
    EXPECT_GT(d.fidelity, 1.0 - 1e-8);
}

TEST(Fit, RandomTargetsMatchCoverageDepth)
{
    // The numerical fit at the polytope-predicted k must succeed.
    const auto &cs = monodromy::coverageForRootIswap(2);
    Rng rng(7);
    for (int trial = 0; trial < 8; ++trial) {
        Mat4 target = linalg::randomSU4(rng);
        int k = cs.minK(weyl::weylCoordinates(target));
        FitOptions opts;
        opts.restarts = 4;
        AnsatzFit fit =
            fitAnsatz(target, weyl::gateRootISWAP(2), k, rng, opts);
        EXPECT_GT(fit.fidelity, 1.0 - 1e-6)
            << "trial " << trial << " k=" << k;
    }
}

TEST(NelderMead, MinimizesQuadratic)
{
    ObjectiveFn f = [](const std::vector<double> &x) {
        double s = 0;
        for (size_t i = 0; i < x.size(); ++i)
            s += (x[i] - double(i)) * (x[i] - double(i));
        return s;
    };
    double best = 0;
    auto x = nelderMead(f, {5.0, 5.0, 5.0}, 1.0, 2000, &best);
    EXPECT_LT(best, 1e-8);
    EXPECT_NEAR(x[1], 1.0, 1e-3);
}

TEST(Equivalence, SeededRulesAreCached)
{
    EquivalenceLibrary lib(2);
    const Decomposition &cx = lib.lookup(weyl::gateCX());
    EXPECT_EQ(cx.k, 2);
    EXPECT_GT(cx.fidelity, 1.0 - 1e-7);
    const Decomposition &swap = lib.lookup(weyl::gateSWAP());
    EXPECT_EQ(swap.k, 3);
    const Decomposition &cns = lib.lookup(weyl::gateCNS());
    EXPECT_EQ(cns.k, 2); // the "free" mirror of CNOT
}

TEST(Equivalence, TranslatePreservesFunction)
{
    // Translate a small mixed circuit to sqrt(iSWAP) pulses and verify
    // by simulation.
    circuit::Circuit c(3, "mix");
    c.h(0);
    c.cx(0, 1);
    c.cp(0.7, 1, 2);
    c.swap(0, 2);
    c.cx(2, 1);

    EquivalenceLibrary lib(2);
    TranslateStats stats;
    circuit::Circuit lowered = lib.translate(c, &stats);
    EXPECT_EQ(stats.blocksTranslated, 4);
    EXPECT_LT(stats.worstInfidelity, 1e-6);
    // Only RootISWAP two-qubit gates remain.
    for (const auto &g : lowered.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.kind, circuit::GateKind::RootISWAP);
        }
    }

    Rng rng(11);
    double overlap = circuit::circuitOverlap(c, lowered, {0, 1, 2}, rng);
    EXPECT_NEAR(overlap, 1.0, 1e-5);
}

TEST(Equivalence, TranslationPulseBudgetMatchesCostModel)
{
    // CNOT=2, CP=2, SWAP=3, CNOT=2 pulses -> 9 total for the circuit in
    // the previous test.
    circuit::Circuit c(3, "mix");
    c.cx(0, 1);
    c.cp(0.7, 1, 2);
    c.swap(0, 2);
    c.cx(2, 1);
    EquivalenceLibrary lib(2);
    TranslateStats stats;
    (void)lib.translate(c, &stats);
    EXPECT_NEAR(stats.totalPulses, 9.0, 1e-12);
}

TEST(Equivalence, DistinctUnitariesNeverShareAnEntry)
{
    // Regression: a cache keyed by a 64-bit hash of the quantized
    // unitary once returned the WRONG decomposition on a collision. The
    // key is now the quantized matrix itself, so CX (k=2) and SWAP (k=3)
    // each get their own entry.
    EquivalenceLibrary lib(2, /*preseed=*/false);
    const Decomposition &cx = lib.lookup(weyl::gateCX());
    EXPECT_EQ(cx.k, 2);
    const Decomposition &swap = lib.lookup(weyl::gateSWAP());
    EXPECT_EQ(swap.k, 3);
    EXPECT_GT(swap.fidelity, 1.0 - 1e-6);
    EXPECT_EQ(lib.cacheSize(), 2u);

    // Repeat lookups hit the same entry instead of refitting.
    const uint64_t fits = lib.fitCount();
    EXPECT_EQ(&lib.lookup(weyl::gateSWAP()), &swap);
    EXPECT_EQ(&lib.lookup(weyl::gateCX()), &cx);
    EXPECT_EQ(lib.fitCount(), fits);
    EXPECT_EQ(lib.hitCount(), 2u);

    // And both entries survive a save/load round trip.
    std::stringstream cache;
    lib.saveCache(cache);
    EquivalenceLibrary fresh(2, /*preseed=*/false);
    ASSERT_TRUE(fresh.loadCache(cache.str()));
    EXPECT_EQ(fresh.cacheSize(), 2u);
    EXPECT_EQ(fresh.lookup(weyl::gateCX()).k, 2);
    EXPECT_EQ(fresh.lookup(weyl::gateSWAP()).k, 3);
    EXPECT_EQ(fresh.fitCount(), 0u);
}

TEST(Equivalence, SaveLoadRoundTripIsExact)
{
    EquivalenceLibrary lib(2);
    std::stringstream cache;
    lib.saveCache(cache);

    EquivalenceLibrary fresh(2, /*preseed=*/false);
    ASSERT_TRUE(fresh.loadCache(cache.str()));
    EXPECT_EQ(fresh.cacheSize(), lib.cacheSize());

    // Looking up a preseeded gate must be a pure cache hit with
    // bit-exact parameters (hexfloat serialization loses nothing).
    const Decomposition &a = lib.lookup(weyl::gateCX());
    const Decomposition &b = fresh.lookup(weyl::gateCX());
    EXPECT_EQ(fresh.fitCount(), 0u);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.fidelity, b.fidelity);
    ASSERT_EQ(a.params.size(), b.params.size());
    for (size_t i = 0; i < a.params.size(); ++i)
        EXPECT_EQ(a.params[i], b.params[i]) << "param " << i;
}
