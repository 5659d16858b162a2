/**
 * @file
 * Differential tests: every vectorized linalg kernel vs its scalar
 * reference implementation (tests/support/linalg_reference.hh).
 *
 * The optimized kernels preserve the reference accumulation order and
 * the naive complex-product formula, so for finite inputs the contract
 * is BIT-IDENTITY, not closeness: every double in the result must have
 * the same bit pattern as the reference result (signed zeros and
 * subnormals included). That is what keeps fitted decompositions,
 * golden lowered-QASM snapshots, and the committed FIT_CATALOG.bin
 * stable across the rewrite.
 *
 * Input classes, all seeded: Haar-random unitaries (>= 1000 per kernel
 * via the shared corpus), Hermitian, defective / near-degenerate, and
 * subnormal-entry matrices. A final test demonstrates the OTHER
 * equivalence class -- a deliberately reordered summation compared at
 * <= 1e-14 Frobenius -- so the two tolerance regimes stay distinct.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "linalg/eigen.hh"
#include "linalg/expm.hh"
#include "linalg/matrix.hh"
#include "linalg/random_unitary.hh"
#include "support/linalg_reference.hh"

using namespace mirage;
using namespace mirage::linalg;

namespace ref = mirage::linalg::reference;

namespace {

uint64_t
bits(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

void
expectBitEqual(Complex got, Complex want, const char *what, int trial)
{
    EXPECT_EQ(bits(got.real()), bits(want.real()))
        << what << " real part, trial " << trial << ": got " << got.real()
        << " want " << want.real();
    EXPECT_EQ(bits(got.imag()), bits(want.imag()))
        << what << " imag part, trial " << trial << ": got " << got.imag()
        << " want " << want.imag();
}

void
expectBitEqual2(const Mat2 &got, const Mat2 &want, const char *what,
                int trial)
{
    for (size_t i = 0; i < 4; ++i)
        expectBitEqual(got.a[i], want.a[i], what, trial);
}

void
expectBitEqual4(const Mat4 &got, const Mat4 &want, const char *what,
                int trial)
{
    for (size_t i = 0; i < 16; ++i)
        expectBitEqual(got.a[i], want.a[i], what, trial);
}

void
expectBitEqualSym(const Sym4 &got, const Sym4 &want, const char *what,
                  int trial)
{
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(bits(got.a[i]), bits(want.a[i]))
            << what << " entry " << i << ", trial " << trial;
}

/** Random matrix with independent normal entries (not unitary). */
Mat4
randomGinibre4(Rng &rng)
{
    Mat4 m;
    for (size_t i = 0; i < 16; ++i)
        m.a[i] = Complex(rng.normal(), rng.normal());
    return m;
}

Mat4
randomHermitian4(Rng &rng)
{
    Mat4 g = randomGinibre4(rng);
    return (g + g.dagger()) * Complex(0.5);
}

/**
 * Defective / near-degenerate: a Jordan-like block with eigenvalue
 * clusters split by ~1e-13, conjugated by a random unitary so the
 * structure is not axis-aligned.
 */
Mat4
nearDegenerate4(Rng &rng)
{
    Mat4 j;
    double lam = rng.uniform(-1.0, 1.0);
    j(0, 0) = Complex(lam);
    j(0, 1) = Complex(1);
    j(1, 1) = Complex(lam + 1e-13);
    j(1, 2) = Complex(1);
    j(2, 2) = Complex(lam - 1e-13);
    j(3, 3) = Complex(lam + rng.uniform(0.0, 1e-12));
    Mat4 u = randomSU4(rng);
    return u * j * u.dagger();
}

/** Entries scaled deep into the subnormal range. */
Mat4
subnormal4(Rng &rng)
{
    Mat4 m = randomGinibre4(rng);
    return m * Complex(5e-310);
}

/** The shared input corpus every kernel test walks. */
std::vector<Mat4>
corpus4()
{
    std::vector<Mat4> out;
    Rng rng(0x1CE4E5B9);
    for (int i = 0; i < 1000; ++i)
        out.push_back(randomSU4(rng));
    for (int i = 0; i < 100; ++i)
        out.push_back(randomHermitian4(rng));
    for (int i = 0; i < 100; ++i)
        out.push_back(nearDegenerate4(rng));
    for (int i = 0; i < 50; ++i)
        out.push_back(subnormal4(rng));
    // Structured edge cases: identity, zero, signed-zero pattern.
    out.push_back(Mat4::identity());
    out.push_back(Mat4{});
    Mat4 sz;
    sz(0, 0) = Complex(-0.0, 0.0);
    sz(1, 2) = Complex(0.0, -0.0);
    sz(3, 3) = Complex(-0.0, -0.0);
    out.push_back(sz);
    return out;
}

std::vector<Mat2>
corpus2()
{
    std::vector<Mat2> out;
    Rng rng(0x94D049BB);
    for (int i = 0; i < 1000; ++i)
        out.push_back(randomSU2(rng));
    for (int i = 0; i < 100; ++i) {
        Mat2 g;
        for (size_t k = 0; k < 4; ++k)
            g.a[k] = Complex(rng.normal(), rng.normal());
        out.push_back(g);
        out.push_back(g * Complex(5e-310));
    }
    out.push_back(Mat2::identity());
    out.push_back(Mat2{});
    return out;
}

double
frobeniusDiff(const Mat4 &a, const Mat4 &b)
{
    double s = 0;
    for (size_t i = 0; i < 16; ++i)
        s += std::norm(a.a[i] - b.a[i]);
    return std::sqrt(s);
}

} // namespace

TEST(KernelDiff, Matmul2BitIdentical)
{
    auto c = corpus2();
    for (size_t i = 0; i + 1 < c.size(); ++i)
        expectBitEqual2(c[i] * c[i + 1], ref::matmul2(c[i], c[i + 1]),
                        "matmul2", int(i));
}

TEST(KernelDiff, Matmul4BitIdentical)
{
    auto c = corpus4();
    for (size_t i = 0; i + 1 < c.size(); ++i)
        expectBitEqual4(c[i] * c[i + 1], ref::matmul4(c[i], c[i + 1]),
                        "matmul4", int(i));
}

TEST(KernelDiff, DaggerBitIdentical)
{
    auto c2 = corpus2();
    for (size_t i = 0; i < c2.size(); ++i)
        expectBitEqual2(c2[i].dagger(), ref::dagger2(c2[i]), "dagger2",
                        int(i));
    auto c4 = corpus4();
    for (size_t i = 0; i < c4.size(); ++i)
        expectBitEqual4(c4[i].dagger(), ref::dagger4(c4[i]), "dagger4",
                        int(i));
}

TEST(KernelDiff, ConjBitIdentical)
{
    auto c2 = corpus2();
    for (size_t i = 0; i < c2.size(); ++i)
        expectBitEqual2(c2[i].conj(), ref::conj2(c2[i]), "conj2", int(i));
    auto c4 = corpus4();
    for (size_t i = 0; i < c4.size(); ++i)
        expectBitEqual4(c4[i].conj(), ref::conj4(c4[i]), "conj4", int(i));
}

TEST(KernelDiff, ScaleBitIdentical)
{
    Rng rng(0xBF58476D);
    auto c2 = corpus2();
    for (size_t i = 0; i < c2.size(); ++i) {
        Complex s(rng.normal(), rng.normal());
        expectBitEqual2(c2[i] * s, ref::scale2(c2[i], s), "scale2", int(i));
    }
    auto c4 = corpus4();
    for (size_t i = 0; i < c4.size(); ++i) {
        Complex s(rng.normal(), rng.normal());
        expectBitEqual4(c4[i] * s, ref::scale4(c4[i], s), "scale4", int(i));
    }
}

TEST(KernelDiff, KronBitIdentical)
{
    auto c = corpus2();
    for (size_t i = 0; i + 1 < c.size(); ++i)
        expectBitEqual4(kron(c[i], c[i + 1]), ref::kron(c[i], c[i + 1]),
                        "kron", int(i));
}

TEST(KernelDiff, ProcessFidelityBitIdentical)
{
    auto c = corpus4();
    for (size_t i = 0; i + 1 < c.size(); ++i) {
        double got = processFidelity(c[i], c[i + 1]);
        double want = ref::processFidelity(c[i], c[i + 1]);
        EXPECT_EQ(bits(got), bits(want)) << "processFidelity trial " << i;
    }
}

TEST(KernelDiff, ExpmBitIdentical)
{
    auto c = corpus4();
    for (size_t i = 0; i < c.size(); ++i) {
        // expm of i*H for Hermitian-ish inputs plus the raw corpus:
        // both paths must match the reference bit for bit.
        expectBitEqual4(expm(c[i]), ref::expm(c[i]), "expm", int(i));
        Mat4 ih = c[i] * Complex(0, 1);
        expectBitEqual4(expm(ih), ref::expm(ih), "expm(iM)", int(i));
    }
}

TEST(KernelDiff, JacobiEigen4BitIdentical)
{
    Rng rng(0x2545F491);
    for (int trial = 0; trial < 1000; ++trial) {
        Sym4 s{};
        for (int i = 0; i < 4; ++i)
            for (int j = i; j < 4; ++j) {
                double v = rng.normal();
                s(i, j) = v;
                s(j, i) = v;
            }
        SymEig4 got = jacobiEigen4(s);
        SymEig4 want = ref::jacobiEigen4(s);
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(bits(got.values[size_t(k)]),
                      bits(want.values[size_t(k)]))
                << "jacobi value " << k << ", trial " << trial;
        expectBitEqualSym(got.vectors, want.vectors, "jacobi vectors",
                          trial);
    }
}

TEST(KernelDiff, SimultaneousDiagonalizeBitIdentical)
{
    Rng rng(0x632BE59B);
    for (int trial = 0; trial < 500; ++trial) {
        // Build a commuting pair A = V w V^T, B = V u V^T with a shared
        // eigenbasis and (every other trial) a degenerate cluster in w,
        // which drives the sub-block Jacobi path.
        Sym4 seed{};
        for (int i = 0; i < 4; ++i)
            for (int j = i; j < 4; ++j) {
                double v = rng.normal();
                seed(i, j) = v;
                seed(j, i) = v;
            }
        Sym4 basis = jacobiEigen4(seed).vectors;
        std::array<double, 4> w{}, u{};
        for (int k = 0; k < 4; ++k) {
            w[size_t(k)] = rng.uniform(-2.0, 2.0);
            u[size_t(k)] = rng.uniform(-2.0, 2.0);
        }
        if (trial % 2 == 0) {
            w[1] = w[0];
            w[2] = w[0] + 1e-12; // inside the default degeneracy_tol
        }
        auto compose = [&](const std::array<double, 4> &d) {
            Sym4 m{};
            for (int i = 0; i < 4; ++i)
                for (int j = 0; j < 4; ++j) {
                    double s = 0;
                    for (int k = 0; k < 4; ++k)
                        s += basis(i, k) * d[size_t(k)] * basis(j, k);
                    m(i, j) = s;
                }
            return m;
        };
        Sym4 a = compose(w), b = compose(u);
        expectBitEqualSym(simultaneousDiagonalize(a, b),
                          ref::simultaneousDiagonalize(a, b), "simdiag",
                          trial);
    }
}

// The other equivalence class the harness distinguishes: a summation in
// a DIFFERENT order is not bit-identical but must stay within 1e-14
// Frobenius of the ordered kernel for well-scaled inputs. Pinning this
// keeps "exact" and "tolerance" claims honest: if the production kernel
// ever reorders, the bit-identity tests above fail while this one keeps
// passing, pointing straight at an accumulation-order change.
TEST(KernelDiff, ReorderedSumWithinFrobeniusTolerance)
{
    Rng rng(0x8CB92BA7);
    for (int trial = 0; trial < 200; ++trial) {
        Mat4 a = randomSU4(rng), b = randomSU4(rng);
        Mat4 reordered;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j) {
                Complex s(0);
                for (int k = 3; k >= 0; --k) // descending: reordered sum
                    s += a(i, k) * b(k, j);
                reordered(i, j) = s;
            }
        EXPECT_LE(frobeniusDiff(a * b, reordered), 1e-14)
            << "trial " << trial;
    }
}
