/**
 * @file
 * Unit tests for the dense linear algebra kernel.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "linalg/eigen.hh"
#include "linalg/expm.hh"
#include "linalg/matrix.hh"
#include "linalg/random_unitary.hh"

using namespace mirage;
using namespace mirage::linalg;

TEST(Mat2, IdentityAndMultiply)
{
    Mat2 i = Mat2::identity();
    Mat2 x = pauliX();
    EXPECT_LT((i * x).a[1].real() - 1.0, 1e-15);
    Mat2 xx = x * x;
    EXPECT_NEAR(std::abs(xx(0, 0) - Complex(1)), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(xx(0, 1)), 0.0, 1e-15);
}

TEST(Mat2, PauliAlgebra)
{
    Mat2 x = pauliX(), y = pauliY(), z = pauliZ();
    // XY = iZ
    Mat2 xy = x * y;
    Mat2 iz = z * Complex(0, 1);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(xy.a[size_t(i)] - iz.a[size_t(i)]), 0.0, 1e-15);
}

TEST(Mat2, DetAndDagger)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        Mat2 u = randomSU2(rng);
        EXPECT_NEAR(std::abs(u.det() - Complex(1)), 0.0, 1e-10);
        Mat2 p = u * u.dagger();
        EXPECT_NEAR(std::abs(p(0, 0) - Complex(1)), 0.0, 1e-10);
        EXPECT_NEAR(std::abs(p(0, 1)), 0.0, 1e-10);
    }
}

TEST(Mat4, DeterminantLU)
{
    Mat4 d = Mat4::diag(2, 3, Complex(0, 1), -1);
    EXPECT_NEAR(std::abs(d.det() - Complex(0, -6)), 0.0, 1e-12);

    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        Mat4 u = randomSU4(rng);
        EXPECT_NEAR(std::abs(u.det() - Complex(1)), 0.0, 1e-9);
    }
}

TEST(Mat4, KronStructure)
{
    Mat4 xx = kron(pauliX(), pauliX());
    // XX swaps |00> <-> |11> and |01> <-> |10>.
    EXPECT_NEAR(std::abs(xx(0, 3) - Complex(1)), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(xx(1, 2) - Complex(1)), 0.0, 1e-15);
    EXPECT_NEAR(std::abs(xx(0, 0)), 0.0, 1e-15);
}

TEST(Mat4, UnitarityCheck)
{
    Rng rng(3);
    Mat4 u = randomSU4(rng);
    EXPECT_TRUE(u.isUnitary(1e-9));
    u(0, 0) += Complex(0.01, 0);
    EXPECT_FALSE(u.isUnitary(1e-9));
}

TEST(RandomUnitary, HaarTraceStatistics)
{
    // E[|tr U|^2] = 1 for Haar on U(N); check loosely on SU(4) where the
    // det normalization perturbs the statistic only slightly.
    Rng rng(1234);
    double acc = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        acc += std::norm(randomSU4(rng).trace());
    double mean = acc / n;
    EXPECT_GT(mean, 0.7);
    EXPECT_LT(mean, 1.6);
}

TEST(Eigen, JacobiRealSymmetric)
{
    Rng rng(5);
    for (int trial = 0; trial < 25; ++trial) {
        Sym4 m{};
        for (int i = 0; i < 4; ++i)
            for (int j = i; j < 4; ++j) {
                double v = rng.normal();
                m(i, j) = v;
                m(j, i) = v;
            }
        SymEig4 e = jacobiEigen4(m);
        // Check M V = V diag(w) column by column.
        for (int col = 0; col < 4; ++col) {
            for (int row = 0; row < 4; ++row) {
                double mv = 0;
                for (int k = 0; k < 4; ++k)
                    mv += m(row, k) * e.vectors(k, col);
                EXPECT_NEAR(mv, e.values[size_t(col)] * e.vectors(row, col),
                            1e-9);
            }
        }
    }
}

TEST(Eigen, SimultaneousDiagonalization)
{
    // Build commuting symmetric matrices from a shared eigenbasis with
    // degeneracy in the first one.
    Rng rng(17);
    Sym4 g{};
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            g(i, j) = rng.normal();
    // Orthonormalize columns of g (Gram-Schmidt).
    for (int col = 0; col < 4; ++col) {
        for (int prev = 0; prev < col; ++prev) {
            double dot = 0;
            for (int i = 0; i < 4; ++i)
                dot += g(i, prev) * g(i, col);
            for (int i = 0; i < 4; ++i)
                g(i, col) -= dot * g(i, prev);
        }
        double n = 0;
        for (int i = 0; i < 4; ++i)
            n += g(i, col) * g(i, col);
        n = std::sqrt(n);
        for (int i = 0; i < 4; ++i)
            g(i, col) /= n;
    }
    auto fromDiag = [&](std::array<double, 4> w) {
        Sym4 m{};
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j) {
                double s = 0;
                for (int k = 0; k < 4; ++k)
                    s += g(i, k) * w[size_t(k)] * g(j, k);
                m(i, j) = s;
            }
        return m;
    };
    Sym4 a = fromDiag({1.0, 1.0, -2.0, -2.0}); // degenerate pairs
    Sym4 b = fromDiag({0.5, -0.5, 3.0, 1.0});  // splits them

    Sym4 v = simultaneousDiagonalize(a, b);
    Sym4 av = congruence(v, a);
    Sym4 bv = congruence(v, b);
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            if (i == j)
                continue;
            EXPECT_NEAR(av(i, j), 0.0, 1e-8);
            EXPECT_NEAR(bv(i, j), 0.0, 1e-8);
        }
    }
}

TEST(Expm, MatchesClosedFormPauli)
{
    // exp(i t XX) = cos t I + i sin t XX.
    double t = 0.7;
    Mat4 viaExpm = expm(pauliXX() * Complex(0, t));
    Mat4 closed = Mat4::identity() * Complex(std::cos(t), 0) +
                  pauliXX() * Complex(0, std::sin(t));
    EXPECT_LT(viaExpm.distance(closed), 1e-12);
}

TEST(Expm, UnitaryForHermitianGenerator)
{
    Rng rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        // Random Hermitian H, exp(iH) must be unitary.
        Mat4 h;
        for (int i = 0; i < 4; ++i) {
            h(i, i) = Complex(rng.normal(), 0);
            for (int j = i + 1; j < 4; ++j) {
                Complex v(rng.normal(), rng.normal());
                h(i, j) = v;
                h(j, i) = std::conj(v);
            }
        }
        Mat4 u = expm(h * Complex(0, 1));
        EXPECT_TRUE(u.isUnitary(1e-9));
    }
}

TEST(TensorFactor, RoundTrip)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        Mat2 a = randomSU2(rng);
        Mat2 b = randomSU2(rng);
        Mat4 m = kron(a, b);
        Mat2 fa, fb;
        double err = 0;
        factorTensorProduct(m, &fa, &fb, &err);
        EXPECT_LT(err, 1e-10);
        EXPECT_LT(kron(fa, fb).distance(m), 1e-10);
    }
}

TEST(Fidelity, SelfAndPhaseInvariance)
{
    Rng rng(41);
    Mat4 u = randomSU4(rng);
    EXPECT_NEAR(processFidelity(u, u), 1.0, 1e-12);
    Mat4 v = u * std::polar(1.0, 1.234);
    EXPECT_NEAR(processFidelity(u, v), 1.0, 1e-12);
    EXPECT_NEAR(averageGateFidelity(u, v), 1.0, 1e-12);
}
