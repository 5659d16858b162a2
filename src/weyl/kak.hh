/**
 * @file
 * Cartan (KAK) decomposition of two-qubit unitaries.
 *
 * Any U in U(4) factors as
 *     U = e^{i phase} (L1 (x) L2) CAN(a,b,c) (R1 (x) R2)
 * with (a,b,c) the canonical Weyl coordinates of U. The decomposition is
 * computed in the magic basis: gamma = V V^T (V = B^dagger U B, det
 * normalized) is a symmetric unitary whose real and imaginary parts
 * commute, so a real orthogonal eigenbasis simultaneously diagonalizes
 * them; the eigenbasis yields the left local, and the diagonal square
 * root yields the right local.
 */

#ifndef MIRAGE_WEYL_KAK_HH
#define MIRAGE_WEYL_KAK_HH

#include "linalg/matrix.hh"
#include "weyl/coordinates.hh"

namespace mirage::weyl {

using linalg::Mat2;
using linalg::Mat4;

/** Result of a KAK decomposition. */
struct KakDecomposition
{
    double phase = 0;     ///< global phase
    Mat2 l1, l2;          ///< left (post-CAN) single-qubit factors
    Coord coords;         ///< canonical Weyl coordinates
    Mat2 r1, r2;          ///< right (pre-CAN) single-qubit factors

    /** Rebuild e^{i phase} (l1 x l2) CAN(coords) (r1 x r2). */
    Mat4 reconstruct() const;

    /** Frobenius error between reconstruct() and a reference matrix. */
    double error(const Mat4 &reference) const;
};

/**
 * Decompose a two-qubit unitary. Accuracy is ~1e-9 for generic inputs and
 * degenerate special gates alike: the local factors come from a two-stage
 * Jacobi diagonalization, which handles degenerate eigenspaces.
 *
 * The SU(4) representative is fixed up to a factor of i, which flips
 * the sign of gamma. The branch is picked on the same Jacobi spectrum of
 * gamma that gives the Weyl coordinates (gammaSpectrum), by matching its
 * diagonal against the CAN target and its negation. On spectra symmetric
 * under negation (CNOT and iSWAP classes) the two matches tie; a fixed
 * rule keeps the + branch unless the - match wins by more than 1e-12, so
 * round-off does not pick the local factors. Both branches reconstruct
 * the input.
 */
KakDecomposition kakDecompose(const Mat4 &u);

} // namespace mirage::weyl

#endif // MIRAGE_WEYL_KAK_HH
