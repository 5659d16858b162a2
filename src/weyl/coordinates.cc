/**
 * @file
 * Weyl coordinate extraction: gamma-matrix spectrum analysis,
 * canonicalization into the positive alcove, and mirror-coordinate
 * transforms (paper Eq. 1).
 */

#include "weyl/coordinates.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "linalg/eigen.hh"
#include "weyl/magic.hh"

namespace mirage::weyl {

namespace {

using linalg::Complex;
using linalg::kPi;

constexpr double kPi2 = kPi / 2.0;
constexpr double kPi4 = kPi / 4.0;

double
mod(double x, double m)
{
    double r = std::fmod(x, m);
    if (r < 0)
        r += m;
    return r;
}

} // namespace

bool
Coord::closeTo(const Coord &o, double tol) const
{
    return std::fabs(a - o.a) < tol && std::fabs(b - o.b) < tol &&
           std::fabs(c - o.c) < tol;
}

std::string
Coord::toString() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "(%.6f, %.6f, %.6f)pi/4", a / kPi4,
                  b / kPi4, c / kPi4);
    return buf;
}

Coord
canonicalize(double a, double b, double c)
{
    // Step 1: coordinate-wise shifts are local (exp(i pi/2 XX) = i XX is a
    // local gate), so reduce mod pi/2 into [0, pi/2).
    std::array<double, 3> v = {mod(a, kPi2), mod(b, kPi2), mod(c, kPi2)};

    // Snap values that landed infinitesimally below pi/2 back to 0.
    for (auto &x : v) {
        if (kPi2 - x < 1e-12)
            x = 0.0;
    }

    // Step 2: iterate sort + fold until the alcove constraint a+b <= pi/2
    // holds. The fold (a,b) -> (pi/2-b, pi/2-a) is an even sign flip
    // followed by two pi/2 shifts, hence a local-equivalence move, and it
    // strictly decreases a+b when a+b > pi/2, so the loop terminates.
    for (int iter = 0; iter < 16; ++iter) {
        std::sort(v.begin(), v.end(), std::greater<double>());
        if (v[0] + v[1] <= kPi2 + 1e-14)
            break;
        double na = kPi2 - v[1];
        double nb = kPi2 - v[0];
        v[0] = na;
        v[1] = nb;
    }

    // Step 3: on the c == 0 face the class has two alcove representatives;
    // pick the a <= pi/4 one. (Flipping signs of a and c is an even flip;
    // with c == 0 it reduces to a -> pi/2 - a after a shift.)
    if (v[2] < 1e-10 && v[0] > kPi4 + 1e-14) {
        v[0] = kPi2 - v[0];
        std::sort(v.begin(), v.end(), std::greater<double>());
    }

    // Clean numerical dust.
    for (auto &x : v) {
        if (std::fabs(x) < 1e-12)
            x = 0.0;
    }
    return Coord{v[0], v[1], v[2]};
}

GammaSpectrum
gammaSpectrum(const Mat4 &u)
{
    // Normalize to det 1.
    Complex det = u.det();
    MIRAGE_ASSERT(std::abs(std::abs(det) - 1.0) < 1e-6,
                  "gammaSpectrum needs a unitary input");
    Mat4 un = u * std::polar(1.0, -std::arg(det) / 4.0);

    // gamma = V V^T in the magic basis has spectrum {e^{2 i d_j}} where the
    // d_j follow the CAN diagonal pattern. gamma is a symmetric unitary, so
    // Re(gamma) and Im(gamma) are commuting real symmetric matrices; a
    // Jacobi simultaneous diagonalization recovers the eigenphases at
    // machine precision even for the (very common) degenerate spectra,
    // where generic polynomial root finders lose half their digits.
    GammaSpectrum s;
    s.v = toMagic(un);
    Mat4 gamma = s.v * s.v.transpose();

    linalg::Sym4 re{}, im{};
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            re(i, j) = gamma(i, j).real();
            im(i, j) = gamma(i, j).imag();
        }
    }
    s.o = linalg::simultaneousDiagonalize(re, im, 1e-6);
    for (int j = 0; j < 4; ++j) {
        Complex e(0);
        for (int r = 0; r < 4; ++r)
            for (int c2 = 0; c2 < 4; ++c2)
                e += s.o(r, j) * gamma(r, c2) * s.o(c2, j);
        s.diag[size_t(j)] = e;
    }
    return s;
}

Coord
weylCoordinates(const Mat4 &u)
{
    return weylCoordinates(gammaSpectrum(u));
}

Coord
weylCoordinates(const GammaSpectrum &spectrum)
{
    // Eigenphases halved, each in (-pi/2, pi/2].
    std::array<double, 4> f;
    for (int i = 0; i < 4; ++i)
        f[size_t(i)] = std::arg(spectrum.diag[size_t(i)]) / 2.0;

    // The d_j are the f_j plus integer multiples of pi with sum(d) == 0
    // (mod 2pi). The running sum is a multiple of pi; push it to ~0 by
    // shifting extreme entries in pi steps.
    double s = f[0] + f[1] + f[2] + f[3];
    for (int guard = 0; guard < 8 && s > kPi2; ++guard) {
        auto it = std::max_element(f.begin(), f.end());
        *it -= kPi;
        s -= kPi;
    }
    for (int guard = 0; guard < 8 && s < -kPi2; ++guard) {
        auto it = std::min_element(f.begin(), f.end());
        *it += kPi;
        s += kPi;
    }

    // Invert the pattern d = (a-b+c, a+b-c, -a-b-c, -a+b+c):
    //   a = (d0+d1)/2, b = (d1+d3)/2, c = (d0+d3)/2.
    // Any assignment of eigenvalues to slots lands in the same local class
    // (the gamma spectrum is a complete invariant), and canonicalize()
    // folds every choice to the same alcove point.
    double a = (f[0] + f[1]) / 2.0;
    double b = (f[1] + f[3]) / 2.0;
    double c = (f[0] + f[3]) / 2.0;
    return canonicalize(a, b, c);
}

Coord
mirrorCoord(const Coord &x)
{
    Coord m;
    if (x.a <= kPi4) {
        m = Coord{kPi4 + x.c, kPi4 - x.b, kPi4 - x.a};
    } else {
        m = Coord{kPi4 - x.c, kPi4 - x.b, x.a - kPi4};
    }
    // The formula maps the alcove into the alcove, but re-canonicalize to
    // apply the c == 0 convention and to scrub rounding dust.
    return canonicalize(m.a, m.b, m.c);
}

std::array<Coord, 2>
representatives(const Coord &x, double tol)
{
    if (x.c < tol) {
        Coord twin = Coord{kPi2 - x.a, x.b, 0.0};
        if (twin.a < twin.b)
            std::swap(twin.a, twin.b);
        return {x, twin};
    }
    return {x, x};
}

bool
inAlcove(const Coord &x, double tol)
{
    return x.a >= x.b - tol && x.b >= x.c - tol && x.c >= -tol &&
           x.a + x.b <= kPi2 + tol;
}

std::array<double, 3>
signedRep(const Coord &x)
{
    if (x.a <= kPi4)
        return {x.a, x.b, x.c};
    return {kPi2 - x.a, x.b, -x.c};
}

bool
inSignedChamber(const std::array<double, 3> &s, double tol)
{
    return s[0] <= kPi4 + tol && s[0] >= s[1] - tol &&
           s[1] >= std::fabs(s[2]) - tol;
}

} // namespace mirage::weyl
