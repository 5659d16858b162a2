/**
 * @file
 * Tests for the monodromy coverage machinery: Haar density, coverage
 * polytopes (validated against the paper's anchor values), cost model,
 * and exact Haar scores (paper Table I).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "linalg/random_unitary.hh"
#include "monodromy/cost_model.hh"
#include "monodromy/coverage.hh"
#include "monodromy/haar_density.hh"
#include "monodromy/scores.hh"
#include "weyl/catalog.hh"

using namespace mirage;
using namespace mirage::monodromy;
using geometry::Polytope;
using geometry::Vec3;

namespace {

constexpr double kPi = 3.14159265358979323846;

} // namespace

TEST(HaarDensity, MatchesDirectSamplingOnHalfspace)
{
    // P(x <= pi/8) in signed-chamber coordinates: quadrature vs direct
    // Haar sampling.
    Polytope region = geometry::signedChamber();
    region.addHalfspace({{1, 0, 0}, kPi / 8.0});
    double quad = haarFraction(region, 3);

    Rng rng(42);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (sampleHaarSigned(rng).x <= kPi / 8.0)
            ++hits;
    }
    double mc = double(hits) / n;
    EXPECT_NEAR(quad, mc, 0.015);
}

TEST(HaarDensity, NormalizationPositive)
{
    EXPECT_GT(alcoveHaarMass(), 0.0);
    EXPECT_NEAR(haarFraction(geometry::signedChamber(), 4), 1.0, 1e-9);
    // Subdivision converges: each extra level tightens the fraction.
    double e2 = std::fabs(haarFraction(geometry::signedChamber(), 2) - 1.0);
    double e3 = std::fabs(haarFraction(geometry::signedChamber(), 3) - 1.0);
    EXPECT_LT(e3, e2);
    EXPECT_LT(e2, 5e-3);
    // The unfolded alcove's z >= 0 half carries exactly half the Haar
    // mass (mirror symmetry of the measure).
    EXPECT_NEAR(haarFraction(geometry::weylAlcove(), 4), 0.5, 1e-4);
}

TEST(Coverage, SqrtIswapStructure)
{
    const CoverageSet &cs = coverageForRootIswap(2);
    // Paper: full Weyl chamber coverage at k = 3.
    EXPECT_EQ(cs.kMax(), 3);
    // k = 1 is a single point: zero volume.
    EXPECT_NEAR(cs.haarFractionAt(1), 0.0, 1e-9);
    // Paper Fig. 3: k = 2 covers 79.0% of the Haar-weighted volume.
    EXPECT_NEAR(cs.haarFractionAt(2), 0.790, 0.01);
    // Paper Fig. 3: with mirrors, 94.4%.
    EXPECT_NEAR(cs.mirrorHaarFractionAt(2), 0.944, 0.01);
    EXPECT_NEAR(cs.haarFractionAt(3), 1.0, 1e-6);
}

TEST(Coverage, SqrtIswapKnownGates)
{
    const CoverageSet &cs = coverageForRootIswap(2);
    EXPECT_EQ(cs.minK(weyl::coordRootISWAP(2)), 1);
    EXPECT_EQ(cs.minK(weyl::coordCNOT()), 2);   // Fig. 1a
    EXPECT_EQ(cs.minK(weyl::coordISWAP()), 2);  // Fig. 1b (CNS)
    EXPECT_EQ(cs.minK(weyl::coordSWAP()), 3);   // SWAPs are most expensive
    EXPECT_EQ(cs.minK(weyl::coordB()), 2);
    EXPECT_EQ(cs.minK(weyl::coordIdentity()), 0);
    // Mirrors: SWAP becomes free data movement, CNOT stays k=2 (CNS).
    EXPECT_EQ(cs.minKMirrored(weyl::coordSWAP()), 0);
    EXPECT_EQ(cs.minKMirrored(weyl::coordCNOT()), 2);
}

TEST(Coverage, CnotPlanarAtK2)
{
    const CoverageSet &cs = coverageForCnot();
    EXPECT_EQ(cs.kMax(), 3);
    // Paper Fig. 3a/3b: both standard and mirrored k=2 slices have zero
    // volume.
    EXPECT_NEAR(cs.haarFractionAt(2), 0.0, 1e-6);
    EXPECT_NEAR(cs.mirrorHaarFractionAt(2), 0.0, 1e-6);
    // But CNOT itself and anything with c == 0 is reachable at k = 2.
    EXPECT_EQ(cs.minK(weyl::coordCNOT()), 1);
    EXPECT_EQ(cs.minK(weyl::coordISWAP()), 2);
    EXPECT_EQ(cs.minK(weyl::coordSWAP()), 3);
}

TEST(Coverage, QuarterIswapDepthBounds)
{
    const CoverageSet &cs = coverageForRootIswap(4);
    // Paper Section III-B: 4th-root iSWAP traditionally requires up to
    // k = 6; with mirroring the depth never exceeds k = 4.
    EXPECT_EQ(cs.kMax(), 6);
    EXPECT_LT(cs.haarFractionAt(5), 1.0 - 1e-4);
    EXPECT_EQ(cs.minK(weyl::coordSWAP()), 6);
    EXPECT_EQ(cs.minK(weyl::coordCNOT()), 4);
    EXPECT_NEAR(cs.mirrorHaarFractionAt(4), 1.0, 1e-4);
}

TEST(Coverage, MembershipMatchesSampledProducts)
{
    // Random interleaved products of k gates must land inside P_k.
    const CoverageSet &cs = coverageForRootIswap(2);
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        int k = 2 + int(rng.index(2)); // 2 or 3
        linalg::Mat4 w = weyl::gateRootISWAP(2);
        for (int j = 1; j < k; ++j)
            w = weyl::gateRootISWAP(2) * (linalg::randomLocal4(rng) * w);
        weyl::Coord c = weyl::weylCoordinates(w);
        EXPECT_LE(cs.minK(c), k) << "k=" << k << " coord " << c.toString();
    }
}

TEST(Coverage, MirrorRegionContainsMirrors)
{
    const CoverageSet &cs = coverageForRootIswap(2);
    // The mirror-extended k=2 region must contain the mirror of every
    // point in P_2; spot check with CPHASE gates (mirrors are pSWAPs).
    for (double phi : {0.4, 1.0, 2.2, kPi}) {
        weyl::Coord cp = weyl::coordCP(phi);
        ASSERT_LE(cs.minK(cp), 2);
        weyl::Coord ps = weyl::mirrorCoord(cp);
        auto sr = weyl::signedRep(ps);
        bool in_mirror_region = false;
        for (const auto &piece : cs.mirrorRegion(2)) {
            if (piece.contains(Vec3{sr[0], sr[1], sr[2]}, 1e-7)) {
                in_mirror_region = true;
                break;
            }
        }
        EXPECT_TRUE(in_mirror_region) << "phi=" << phi;
    }
}

/**
 * The registry serves committed tables; the numeric builder is only
 * their generator. Per basis (0 = CNOT, n = n-th root of iSWAP), the two
 * must agree semantically: same depth, same membership answers, same
 * Haar volumes. (Bitwise equality is what `mirage coverage check` gates,
 * per build configuration.)
 */
class CoverageTables : public ::testing::TestWithParam<int>
{
};

TEST_P(CoverageTables, MatchTheNumericBuilder)
{
    const int root = GetParam();
    const CoverageSet built = root == 0
                                  ? CoverageSet::build(BasisSpec::cnot())
                                  : buildRootIswapCoverage(root);
    const CoverageSet &table =
        root == 0 ? coverageForCnot() : coverageForRootIswap(root);
    ASSERT_EQ(table.basis().name, built.basis().name);
    bool listed = false;
    for (const CoverageTable &t : committedCoverageTables())
        listed |= built.basis().name == t.basis;
    ASSERT_TRUE(listed) << "no committed table";
    ASSERT_EQ(table.kMax(), built.kMax());

    // Probe coordinates: Haar samples, uniform random triples, points of
    // the finest snapping grid pi/64 (they sit exactly on facet planes),
    // the named catalog gates, and interleaved products of this basis
    // (which land on or near the facets that matter for it).
    std::vector<weyl::Coord> probes;
    Rng rng(0xC0FE);
    for (int i = 0; i < 2000; ++i)
        probes.push_back(sampleHaarCoord(rng));
    for (int i = 0; i < 1000; ++i)
        probes.push_back(weyl::canonicalize(rng.uniform(-kPi, kPi),
                                            rng.uniform(-kPi, kPi),
                                            rng.uniform(-kPi, kPi)));
    const double step = kPi / 64.0;
    for (int i = 0; i <= 16; i += 2)
        for (int j = 0; j <= i; ++j)
            for (int l = -j; l <= j; ++l)
                probes.push_back(weyl::canonicalize(i * step, j * step,
                                                    l * step));
    for (const weyl::Coord &c :
         {weyl::coordIdentity(), weyl::coordCNOT(), weyl::coordISWAP(),
          weyl::coordSWAP(), weyl::coordB(), weyl::coordRootISWAP(2),
          weyl::coordRootISWAP(3), weyl::coordRootISWAP(4)})
        probes.push_back(c);
    for (double phi : {0.1, 0.4, 1.0, kPi / 2, 2.2, kPi})
        probes.push_back(weyl::coordCP(phi));
    for (int k = 2; k <= built.kMax(); ++k) {
        for (int t = 0; t < 100; ++t) {
            linalg::Mat4 w = built.basis().matrix;
            for (int j = 1; j < k; ++j)
                w = built.basis().matrix * (linalg::randomLocal4(rng) * w);
            probes.push_back(weyl::weylCoordinates(w));
        }
    }

    int mismatches = 0;
    for (const weyl::Coord &c : probes) {
        if (table.minK(c) != built.minK(c) ||
            table.minKMirrored(c) != built.minKMirrored(c))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "of " << probes.size() << " probes";

    for (int k = 1; k <= built.kMax(); ++k) {
        EXPECT_NEAR(table.haarFractionAt(k), built.haarFractionAt(k), 1e-12)
            << "k=" << k;
        EXPECT_NEAR(table.mirrorHaarFractionAt(k),
                    built.mirrorHaarFractionAt(k), 1e-12)
            << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Bases, CoverageTables, ::testing::Values(0, 1, 2, 3, 4),
    [](const ::testing::TestParamInfo<int> &info) {
        return info.param == 0 ? std::string("cnot")
                               : "root" + std::to_string(info.param);
    });

TEST(CoverageRegistry, UntabulatedRootIsRejected)
{
    // The registry serves only the committed tables; it never starts a
    // numeric build.
    EXPECT_THROW(coverageForRootIswap(5), std::invalid_argument);
    EXPECT_THROW(coverageForRootIswap(0), std::invalid_argument);
}

TEST(CoverageRegistry, UntabulatedRootBuildsNumerically)
{
    // The fifth root has no table entry, but the generator builds it
    // (with iSWAP as its exact parent). It must nest between the
    // coarser roots' structure: deeper than root 4, full coverage.
    const CoverageSet cs = buildRootIswapCoverage(5);
    EXPECT_EQ(cs.basis().name, "riswap-5");
    EXPECT_GT(cs.kMax(), coverageForRootIswap(4).kMax());
    EXPECT_NEAR(cs.haarFractionAt(cs.kMax()), 1.0, 1e-6);
    EXPECT_EQ(cs.minK(weyl::coordRootISWAP(5)), 1);
    EXPECT_EQ(cs.minK(weyl::coordISWAP()), 5);
}

TEST(CostModel, PulseCosts)
{
    CostModel cm = makeRootIswapCostModel(2);
    EXPECT_NEAR(cm.basisDuration(), 0.5, 1e-12);
    EXPECT_NEAR(cm.costOf(weyl::coordCNOT()), 1.0, 1e-9);
    EXPECT_NEAR(cm.costOf(weyl::coordISWAP()), 1.0, 1e-9);
    EXPECT_NEAR(cm.swapCost(), 1.5, 1e-9);
    // Mirror of CNOT costs the same (the paper's central observation).
    EXPECT_NEAR(cm.mirrorCostOf(weyl::coordCNOT()), 1.0, 1e-9);
    // Mirror of SWAP is free.
    EXPECT_NEAR(cm.mirrorCostOf(weyl::coordSWAP()), 0.0, 1e-9);
}

TEST(CostModel, DecayFidelityAnchors)
{
    // Unit-duration pulse = 0.99 by construction (paper Section III-C).
    EXPECT_NEAR(decayFidelity(1.0), 0.99, 1e-12);
    EXPECT_NEAR(decayFidelity(0.5), std::sqrt(0.99), 1e-12);
    EXPECT_NEAR(decayFidelity(0.0), 1.0, 1e-12);
}

TEST(HaarScores, TableOneSqrtIswap)
{
    const CoverageSet &cs = coverageForRootIswap(2);
    HaarScore plain = haarScoreExact(cs, false);
    HaarScore mirror = haarScoreExact(cs, true);
    // Paper Table I (sqrt iSWAP): 1.105 / 0.9890 and 1.029 / 0.9897.
    EXPECT_NEAR(plain.score, 1.105, 0.01);
    EXPECT_NEAR(plain.fidelity, 0.9890, 0.001);
    EXPECT_NEAR(mirror.score, 1.029, 0.012);
    EXPECT_NEAR(mirror.fidelity, 0.9897, 0.001);
}

TEST(HaarScores, TableOneOrdering)
{
    // Smaller fractions improve (lower) the Haar score, and mirrors always
    // help (paper Table I trends).
    double prev_plain = 1e9, prev_mirror = 1e9;
    for (int n : {2, 3, 4}) {
        const CoverageSet &cs = coverageForRootIswap(n);
        HaarScore plain = haarScoreExact(cs, false);
        HaarScore mirror = haarScoreExact(cs, true);
        EXPECT_LT(mirror.score, plain.score) << "n=" << n;
        EXPECT_GT(mirror.fidelity, plain.fidelity) << "n=" << n;
        EXPECT_LT(plain.score, prev_plain);
        EXPECT_LT(mirror.score, prev_mirror);
        prev_plain = plain.score;
        prev_mirror = mirror.score;
    }
}
