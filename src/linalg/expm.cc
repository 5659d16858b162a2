/**
 * @file
 * Matrix exponential exp(i H) for small Hermitian H via scaling and
 * squaring with Taylor evaluation.
 */

#include "linalg/expm.hh"

namespace mirage::linalg {

Mat4
expm(const Mat4 &m)
{
    // Scale so the scaled norm is below ~0.5, Taylor to degree 16, then
    // square back up.
    double norm = m.frobeniusNorm();
    int squarings = 0;
    double scale = 1.0;
    while (norm * scale > 0.5) {
        scale *= 0.5;
        ++squarings;
    }

    Mat4 x = m * Complex(scale);
    Mat4 term = Mat4::identity();
    Mat4 sum = Mat4::identity();
    for (int k = 1; k <= 16; ++k) {
        term = term * x * Complex(1.0 / k);
        sum = sum + term;
    }
    for (int s = 0; s < squarings; ++s)
        sum = sum * sum;
    return sum;
}

} // namespace mirage::linalg
