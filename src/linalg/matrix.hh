/**
 * @file
 * Fixed-size dense complex matrices (2x2 and 4x4) and vectors.
 *
 * Everything the Weyl-chamber, KAK, and decomposition machinery needs is
 * built on these two sizes, so they are simple stack-allocated aggregates
 * with value semantics instead of a general matrix library.
 */

#ifndef MIRAGE_LINALG_MATRIX_HH
#define MIRAGE_LINALG_MATRIX_HH

#include <array>
#include <complex>
#include <cstdint>

namespace mirage::linalg {

using Complex = std::complex<double>;

inline constexpr double kPi = 3.14159265358979323846;

/** Dense 2x2 complex matrix, row-major. */
struct Mat2
{
    std::array<Complex, 4> a{};

    Complex &operator()(int r, int c) { return a[size_t(2 * r + c)]; }
    const Complex &operator()(int r, int c) const
    {
        return a[size_t(2 * r + c)];
    }

    static Mat2 identity();
    static Mat2 zero() { return Mat2{}; }

    Mat2 operator+(const Mat2 &o) const;
    Mat2 operator-(const Mat2 &o) const;
    Mat2 operator*(const Mat2 &o) const;
    Mat2 operator*(Complex s) const;

    Mat2 dagger() const;
    Mat2 conj() const;
    Complex trace() const { return a[0] + a[3]; }
    Complex det() const { return a[0] * a[3] - a[1] * a[2]; }
};

/** Dense 4x4 complex matrix, row-major. */
struct Mat4
{
    std::array<Complex, 16> a{};

    Complex &operator()(int r, int c) { return a[size_t(4 * r + c)]; }
    const Complex &operator()(int r, int c) const
    {
        return a[size_t(4 * r + c)];
    }

    static Mat4 identity();
    static Mat4 zero() { return Mat4{}; }
    static Mat4 diag(Complex d0, Complex d1, Complex d2, Complex d3);

    Mat4 operator+(const Mat4 &o) const;
    Mat4 operator-(const Mat4 &o) const;
    Mat4 operator*(const Mat4 &o) const;
    Mat4 operator*(Complex s) const;

    Mat4 dagger() const;
    Mat4 transpose() const;
    Mat4 conj() const;
    Complex trace() const;
    /** Determinant via cofactor-free LU with partial pivoting. */
    Complex det() const;

    /** Frobenius norm of (this - o). */
    double distance(const Mat4 &o) const;
    /** Largest |entry| of (this - o). */
    double maxAbsDiff(const Mat4 &o) const;
    double frobeniusNorm() const;

    /** True when M M^dagger == I within tol. */
    bool isUnitary(double tol = 1e-9) const;
};

/** Kronecker product of two 2x2 matrices: (a tensor b). */
Mat4 kron(const Mat2 &a, const Mat2 &b);

/** Pauli matrices and friends. */
Mat2 pauliX();
Mat2 pauliY();
Mat2 pauliZ();
Mat2 hadamard();

/** XX, YY two-qubit Pauli products. */
Mat4 pauliXX();
Mat4 pauliYY();

/**
 * Process fidelity between two 4x4 unitaries, insensitive to global phase:
 * |tr(A^dagger B)|^2 / 16. Equals 1 iff A == B up to phase.
 */
double processFidelity(const Mat4 &a, const Mat4 &b);

/**
 * Average gate fidelity for d=4: (d*Fpro + 1) / (d + 1) with
 * Fpro = |tr(A^dagger B)|^2 / d^2.
 */
double averageGateFidelity(const Mat4 &a, const Mat4 &b);

/**
 * Split a 4x4 tensor-product unitary into its 2x2 factors so that
 * kron(a, b) reproduces m up to global phase. Requires m to actually be a
 * tensor product; the residual is returned through *error if non-null.
 */
void factorTensorProduct(const Mat4 &m, Mat2 *a, Mat2 *b,
                         double *error = nullptr);

/**
 * A Mat4 rounded entrywise to a 1e-9 cell, re/im interleaved: the key of
 * every unitary cache (consolidation's coordinate LRU, the equivalence
 * library's fits). Two unitaries that agree to the cell share a key;
 * std::array's lexicographic `<` orders keys for std::map.
 */
using QuantizedMat = std::array<int64_t, 32>;

/** Round each entry to the nearest multiple of 1e-9. */
QuantizedMat quantize(const Mat4 &m);
/** The cell's representative: within 1e-9 of every member per entry. */
Mat4 dequantize(const QuantizedMat &q);

/** FNV-1a over the 32 cells from `basis` (the offset basis by default). */
uint64_t hashQuantized(const QuantizedMat &q,
                       uint64_t basis = 0xcbf29ce484222325ULL);

/** hashQuantized as the hash of an unordered container. */
struct QuantizedMatHash
{
    size_t operator()(const QuantizedMat &q) const
    {
        return size_t(hashQuantized(q));
    }
};

} // namespace mirage::linalg

#endif // MIRAGE_LINALG_MATRIX_HH
