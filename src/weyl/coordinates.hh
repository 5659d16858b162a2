/**
 * @file
 * Weyl-chamber (positive canonical) coordinates of two-qubit unitaries.
 *
 * Conventions (matching the paper and the monodromy package):
 *   - CAN(a,b,c) = exp(i(a XX + b YY + c ZZ))
 *   - alcove A = { (a,b,c) : a >= b >= c >= 0 and a + b <= pi/2 }
 *   - CNOT = (pi/4, 0, 0), iSWAP = (pi/4, pi/4, 0),
 *     sqrt(iSWAP) = (pi/8, pi/8, 0), SWAP = (pi/4, pi/4, pi/4)
 *   - on the c == 0 face, (a, b, 0) and (pi/2 - a, b, 0) denote the same
 *     local-equivalence class; canonicalization picks a <= pi/4 there.
 *
 * The mirror transform (paper Eq. 1) maps coords(U) to coords(U * SWAP).
 */

#ifndef MIRAGE_WEYL_COORDINATES_HH
#define MIRAGE_WEYL_COORDINATES_HH

#include <array>
#include <string>

#include "linalg/eigen.hh"
#include "linalg/matrix.hh"

namespace mirage::weyl {

using linalg::Mat4;

/** A point in the Weyl chamber (radians). */
struct Coord
{
    double a = 0;
    double b = 0;
    double c = 0;

    bool closeTo(const Coord &o, double tol = 1e-8) const;
    std::string toString() const;
};

/**
 * Fold an arbitrary coordinate triple into the alcove using the Weyl group
 * action (mod-pi/2 shifts, permutations, even sign flips) plus the c == 0
 * face identification.
 */
Coord canonicalize(double a, double b, double c);

/**
 * The spectrum of gamma = V V^T, where V = B^dagger U B is U, normalized
 * to det 1, in the magic basis. gamma is a symmetric unitary, so one real
 * orthogonal O diagonalizes Re(gamma) and Im(gamma) at once (a single
 * Jacobi pass); diag[j] = (O^T gamma O)(j, j). Weyl coordinates read the
 * eigenphases, and the KAK decomposition also reuses V and O.
 */
struct GammaSpectrum
{
    Mat4 v;                               ///< det-normalized U, magic basis
    linalg::Sym4 o;                       ///< eigenbasis of gamma (columns)
    std::array<linalg::Complex, 4> diag;  ///< gamma's eigenvalues, O's order
};

/** Spectrum of gamma for a two-qubit unitary. */
GammaSpectrum gammaSpectrum(const Mat4 &u);

/** Weyl coordinates of a two-qubit unitary, canonicalized into the alcove. */
Coord weylCoordinates(const Mat4 &u);

/** Weyl coordinates read off an already computed gamma spectrum. */
Coord weylCoordinates(const GammaSpectrum &spectrum);

/**
 * Mirror transform (paper Eq. 1): coordinates of U * SWAP given the
 * coordinates of U.
 */
Coord mirrorCoord(const Coord &x);

/**
 * The two alcove representatives of a class: the point itself, plus the
 * (pi/2 - a, b, 0) twin when c is (numerically) zero. Membership queries
 * against coverage polytopes must test all representatives.
 */
std::array<Coord, 2> representatives(const Coord &x, double tol = 1e-9);

/** True when x lies inside the alcove (with tolerance). */
bool inAlcove(const Coord &x, double tol = 1e-9);

/**
 * Signed-chamber representative: the canonical Weyl chamber
 * { pi/4 >= x >= y >= |z| } in which monodromy coverage sets are convex.
 * Alcove points with a > pi/4 map via (a,b,c) -> (pi/2-a, b, -c).
 */
std::array<double, 3> signedRep(const Coord &x);

/** Signed-chamber membership check. */
bool inSignedChamber(const std::array<double, 3> &s, double tol = 1e-9);

} // namespace mirage::weyl

#endif // MIRAGE_WEYL_COORDINATES_HH
