/**
 * @file
 * Tests for Weyl coordinates, canonicalization, the mirror transform
 * (paper Eq. 1), and the KAK decomposition.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"
#include "linalg/random_unitary.hh"
#include "weyl/can.hh"
#include "weyl/catalog.hh"
#include "weyl/coordinates.hh"
#include "weyl/kak.hh"
#include "weyl/magic.hh"

using namespace mirage;
using namespace mirage::weyl;
using linalg::Complex;
using linalg::kPi;

namespace {

constexpr double kPi4 = kPi / 4.0;
constexpr double kPi8 = kPi / 8.0;

/** The KAK coordinates are weylCoordinates' own, bit for bit. */
void
expectCoordsBitEqual(const Coord &got, const Coord &want)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(got.a), std::bit_cast<uint64_t>(want.a));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.b), std::bit_cast<uint64_t>(want.b));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.c), std::bit_cast<uint64_t>(want.c));
}

} // namespace

TEST(Magic, BasisIsUnitary)
{
    EXPECT_TRUE(magicBasis().isUnitary(1e-12));
}

TEST(Magic, CanIsDiagonalInMagicBasis)
{
    Mat4 can = canonicalGate(0.3, 0.2, 0.1);
    Mat4 m = toMagic(can);
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            if (i != j) {
                EXPECT_NEAR(std::abs(m(i, j)), 0.0, 1e-12);
            }
        }
    }
    auto d = canMagicAngles(0.3, 0.2, 0.1);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(m(i, i) - std::polar(1.0, d[size_t(i)])), 0.0,
                    1e-12);
}

TEST(Can, ReproducesNamedGates)
{
    // CAN(pi/4, pi/4, 0) is exactly iSWAP.
    EXPECT_LT(canonicalGate(kPi4, kPi4, 0).distance(gateISWAP()), 1e-12);
    // CAN(pi/4, pi/4, pi/4) is SWAP up to global phase.
    Mat4 sw = canonicalGate(kPi4, kPi4, kPi4);
    Complex t = (sw.dagger() * gateSWAP()).trace();
    Mat4 aligned = sw * (t / std::abs(t));
    EXPECT_LT(aligned.distance(gateSWAP()), 1e-12);
}

TEST(Coordinates, NamedGates)
{
    EXPECT_TRUE(weylCoordinates(gateCX()).closeTo(coordCNOT()));
    EXPECT_TRUE(weylCoordinates(gateCZ()).closeTo(coordCNOT()));
    EXPECT_TRUE(weylCoordinates(gateISWAP()).closeTo(coordISWAP()));
    EXPECT_TRUE(weylCoordinates(gateSWAP()).closeTo(coordSWAP()));
    EXPECT_TRUE(weylCoordinates(gateRootISWAP(2))
                    .closeTo(coordRootISWAP(2)));
    EXPECT_TRUE(weylCoordinates(gateRootISWAP(4))
                    .closeTo(coordRootISWAP(4)));
    EXPECT_TRUE(weylCoordinates(gateB()).closeTo(coordB()));
    EXPECT_TRUE(weylCoordinates(Mat4::identity()).closeTo(coordIdentity()));
    // CNS is locally an iSWAP (paper Fig. 1b).
    EXPECT_TRUE(weylCoordinates(gateCNS()).closeTo(coordISWAP()));
}

TEST(Coordinates, CPhaseFamily)
{
    for (double phi : {0.2, 0.7, 1.3, 2.0, 2.9}) {
        Coord c = weylCoordinates(gateCP(phi));
        EXPECT_TRUE(c.closeTo(coordCP(phi), 1e-8))
            << "phi=" << phi << " got " << c.toString();
        EXPECT_NEAR(c.a, phi / 4.0, 1e-8);
    }
    // Beyond pi the class folds back: CP(3pi/2) ~ CP(pi/2).
    Coord folded = weylCoordinates(gateCP(3.0 * kPi / 2.0));
    EXPECT_NEAR(folded.a, kPi8, 1e-8);
}

TEST(Coordinates, RoundTripThroughCan)
{
    Rng rng(101);
    for (int trial = 0; trial < 200; ++trial) {
        // Sample a point in the alcove by rejection.
        double a, b, c;
        while (true) {
            a = rng.uniform(0, kPi / 2);
            b = rng.uniform(0, kPi / 2);
            c = rng.uniform(0, kPi / 2);
            if (a >= b && b >= c && a + b <= kPi / 2)
                break;
        }
        Coord in{a, b, c};
        // Avoid the c == 0 face double representation in this test.
        if (in.c < 1e-3)
            continue;
        Mat4 u = canonicalGate(in.a, in.b, in.c);
        Coord out = weylCoordinates(u);
        EXPECT_TRUE(out.closeTo(in, 1e-7))
            << "in " << in.toString() << " out " << out.toString();
    }
}

TEST(Coordinates, LocalInvariance)
{
    Rng rng(202);
    for (int trial = 0; trial < 100; ++trial) {
        Mat4 u = linalg::randomSU4(rng);
        Coord base = weylCoordinates(u);
        Mat4 dressed = linalg::randomLocal4(rng) * u *
                       linalg::randomLocal4(rng);
        Coord c = weylCoordinates(dressed);
        EXPECT_TRUE(c.closeTo(base, 1e-7))
            << base.toString() << " vs " << c.toString();
    }
}

TEST(Coordinates, AlcoveMembership)
{
    Rng rng(303);
    for (int trial = 0; trial < 200; ++trial) {
        Coord c = weylCoordinates(linalg::randomSU4(rng));
        EXPECT_TRUE(inAlcove(c)) << c.toString();
    }
}

TEST(Mirror, KnownPairs)
{
    // mirror(CNOT) = iSWAP; mirror(iSWAP) = CNOT; mirror(I) = SWAP.
    EXPECT_TRUE(mirrorCoord(coordCNOT()).closeTo(coordISWAP()));
    EXPECT_TRUE(mirrorCoord(coordISWAP()).closeTo(coordCNOT()));
    EXPECT_TRUE(mirrorCoord(coordIdentity()).closeTo(coordSWAP()));
    EXPECT_TRUE(mirrorCoord(coordSWAP()).closeTo(coordIdentity()));
}

TEST(Mirror, MatchesMatrixComposition)
{
    // Property: coords(U * SWAP_matrix) == mirrorCoord(coords(U)).
    Rng rng(404);
    for (int trial = 0; trial < 200; ++trial) {
        Mat4 u = linalg::randomSU4(rng);
        Coord direct = weylCoordinates(gateSWAP() * u);
        Coord via = mirrorCoord(weylCoordinates(u));
        EXPECT_TRUE(direct.closeTo(via, 1e-7))
            << direct.toString() << " vs " << via.toString();
    }
}

TEST(Mirror, IsInvolution)
{
    Rng rng(505);
    for (int trial = 0; trial < 200; ++trial) {
        Coord c = weylCoordinates(linalg::randomSU4(rng));
        Coord back = mirrorCoord(mirrorCoord(c));
        EXPECT_TRUE(back.closeTo(c, 1e-9))
            << c.toString() << " vs " << back.toString();
    }
}

TEST(Mirror, CPhaseToPswap)
{
    // Paper Fig. 6: the CPHASE family mirrors into the parametric-SWAP
    // family: mirror(phi/4, 0, 0) = (pi/4, pi/4, pi/4 - phi/4).
    for (double phi : {0.3, 0.9, 1.7, 2.6}) {
        Coord m = mirrorCoord(coordCP(phi));
        EXPECT_NEAR(m.a, kPi4, 1e-10);
        EXPECT_NEAR(m.b, kPi4, 1e-10);
        EXPECT_NEAR(m.c, kPi4 - phi / 4.0, 1e-10);
        // And it matches the pSWAP matrix itself.
        Coord mat = weylCoordinates(gatePSWAP(phi));
        EXPECT_TRUE(mat.closeTo(m, 1e-8));
    }
}

TEST(Canonicalize, FoldsIntoAlcove)
{
    Rng rng(606);
    for (int trial = 0; trial < 500; ++trial) {
        double a = rng.uniform(-3.0, 3.0);
        double b = rng.uniform(-3.0, 3.0);
        double c = rng.uniform(-3.0, 3.0);
        Coord f = canonicalize(a, b, c);
        EXPECT_TRUE(inAlcove(f)) << f.toString();
    }
}

TEST(Canonicalize, ZeroFaceConvention)
{
    // (3/8 pi, 1/16 pi, 0) folds to a <= pi/4 representative.
    Coord f = canonicalize(3.0 * kPi / 8.0, kPi / 16.0, 0.0);
    EXPECT_LE(f.a, kPi4 + 1e-12);
    Coord g = canonicalize(kPi / 2.0 - 3.0 * kPi / 8.0, kPi / 16.0, 0.0);
    EXPECT_TRUE(f.closeTo(g, 1e-12));
}

TEST(Kak, ReconstructsNamedGates)
{
    for (const Mat4 &u : {gateCX(), gateCZ(), gateISWAP(), gateSWAP(),
                          gateRootISWAP(2), gateRootISWAP(3),
                          gateRootISWAP(4), gateCNS(), gateB(),
                          Mat4::identity(), gateCP(1.1)}) {
        KakDecomposition kak = kakDecompose(u);
        EXPECT_LT(kak.error(u), 1e-7);
    }
}

TEST(Kak, ReconstructsRandomUnitaries)
{
    Rng rng(707);
    for (int trial = 0; trial < 200; ++trial) {
        Mat4 u = linalg::randomSU4(rng);
        KakDecomposition kak = kakDecompose(u);
        EXPECT_LT(kak.error(u), 1e-7) << "trial " << trial;
        EXPECT_TRUE(inAlcove(kak.coords));
        expectCoordsBitEqual(kak.coords, weylCoordinates(u));
    }
}

TEST(Kak, ReconstructsDressedCanGates)
{
    // Locally dressed CAN gates with degenerate spectra are the stress
    // case for the simultaneous diagonalization. The CNOT and iSWAP
    // classes have gamma spectra symmetric under negation, so both are
    // decided by the branch-pick tie rule.
    Rng rng(808);
    for (const Coord &target : {coordCNOT(), coordISWAP()}) {
        for (int trial = 0; trial < 100; ++trial) {
            Mat4 u = linalg::randomLocal4(rng) *
                     canonicalGate(target.a, target.b, target.c) *
                     linalg::randomLocal4(rng);
            KakDecomposition kak = kakDecompose(u);
            EXPECT_LT(kak.error(u), 1e-7)
                << target.toString() << " trial " << trial;
            EXPECT_TRUE(kak.coords.closeTo(target, 1e-7));
            expectCoordsBitEqual(kak.coords, weylCoordinates(u));
        }
    }
}

TEST(Kak, LocalFactorsAreUnitary)
{
    Rng rng(909);
    for (int trial = 0; trial < 50; ++trial) {
        Mat4 u = linalg::randomSU4(rng);
        KakDecomposition kak = kakDecompose(u);
        Mat2 p1 = kak.l1 * kak.l1.dagger();
        Mat2 p2 = kak.r2 * kak.r2.dagger();
        EXPECT_NEAR(std::abs(p1(0, 0) - Complex(1)), 0.0, 1e-8);
        EXPECT_NEAR(std::abs(p2(0, 0) - Complex(1)), 0.0, 1e-8);
        EXPECT_NEAR(std::abs(p1(0, 1)), 0.0, 1e-8);
        EXPECT_NEAR(std::abs(p2(0, 1)), 0.0, 1e-8);
    }
}

TEST(Representatives, ZeroFaceTwin)
{
    auto reps = representatives(coordCNOT());
    // CNOT sits exactly at a == pi/4, its twin is itself.
    EXPECT_TRUE(reps[0].closeTo(reps[1], 1e-9));

    Coord cp = coordCP(1.0); // a = 0.25 rad
    auto reps2 = representatives(cp);
    EXPECT_NEAR(reps2[1].a, kPi / 2 - 0.25, 1e-9);

    Coord interior{0.5, 0.4, 0.3};
    auto reps3 = representatives(interior);
    EXPECT_TRUE(reps3[0].closeTo(reps3[1]));
}
