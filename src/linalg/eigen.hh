/**
 * @file
 * Eigensolvers for the small real symmetric matrices the Weyl machinery
 * needs: a cyclic Jacobi eigensolver for 4x4 matrices, with a two-stage
 * variant that simultaneously diagonalizes a commuting pair (Re(gamma)
 * and Im(gamma) of the magic-basis gamma matrix, whose spectrum gives
 * both the Weyl coordinates and the KAK decomposition).
 */

#ifndef MIRAGE_LINALG_EIGEN_HH
#define MIRAGE_LINALG_EIGEN_HH

#include <array>

#include "linalg/matrix.hh"

namespace mirage::linalg {

/** Real symmetric 4x4 matrix stored densely. */
struct Sym4
{
    std::array<double, 16> a{};

    double &operator()(int r, int c) { return a[size_t(4 * r + c)]; }
    const double &operator()(int r, int c) const
    {
        return a[size_t(4 * r + c)];
    }
};

/** Result of a real symmetric eigendecomposition m = V diag(w) V^T. */
struct SymEig4
{
    std::array<double, 4> values{};
    /** Columns are eigenvectors; orthogonal with det +1 not guaranteed. */
    Sym4 vectors{};
};

/** Cyclic Jacobi diagonalization of a real symmetric 4x4 matrix. */
SymEig4 jacobiEigen4(const Sym4 &m);

/**
 * Simultaneously diagonalize two commuting real symmetric matrices:
 * returns orthogonal V with V^T a V and V^T b V both diagonal.
 * Diagonalizes a first, then runs Jacobi on b restricted to each
 * (near-)degenerate eigenspace of a.
 */
Sym4 simultaneousDiagonalize(const Sym4 &a, const Sym4 &b,
                             double degeneracy_tol = 1e-9);

/** V^T m V for orthogonal V. */
Sym4 congruence(const Sym4 &v, const Sym4 &m);

/** Determinant of a real 4x4 matrix. */
double det4(const Sym4 &m);

} // namespace mirage::linalg

#endif // MIRAGE_LINALG_EIGEN_HH
