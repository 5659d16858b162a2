/**
 * @file
 * Matrix exponential for small complex matrices.
 *
 * exp(i H) for Hermitian H is the only case the library needs (canonical
 * gate construction and ansatz generators); a scaling-and-squaring Taylor
 * evaluation is accurate to machine precision for the norms that occur
 * (|H| <= ~3).
 */

#ifndef MIRAGE_LINALG_EXPM_HH
#define MIRAGE_LINALG_EXPM_HH

#include "linalg/matrix.hh"

namespace mirage::linalg {

/** exp(m) via scaling and squaring with a degree-16 Taylor core. */
Mat4 expm(const Mat4 &m);

} // namespace mirage::linalg

#endif // MIRAGE_LINALG_EXPM_HH
