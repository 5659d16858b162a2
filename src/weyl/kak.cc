/**
 * @file
 * KAK decomposition: branch pick on the shared gamma spectrum, local
 * factor extraction, and phase bookkeeping.
 */

#include "weyl/kak.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"
#include "linalg/eigen.hh"
#include "weyl/can.hh"
#include "weyl/magic.hh"

namespace mirage::weyl {

using linalg::Complex;
using linalg::Sym4;

namespace {

/**
 * The branch pick flips to -lambda only when that match beats +lambda by
 * more than this. On spectra symmetric under negation (CNOT and iSWAP
 * classes) both matches score ~1e-15, so a tie keeps the + branch whatever
 * the round-off.
 */
constexpr double kBranchTieMargin = 1e-12;

/** A column permutation and its total matching distance. */
struct Match
{
    std::array<int, 4> perm;
    double score;
};

/** Best column permutation aligning diag values to the wanted spectrum. */
Match
bestPermutation(const std::array<Complex, 4> &got,
                const std::array<Complex, 4> &want)
{
    std::array<int, 4> perm = {0, 1, 2, 3};
    Match best{perm, 1e18};
    do {
        double s = 0;
        for (int i = 0; i < 4; ++i)
            s += std::abs(got[size_t(perm[size_t(i)])] - want[size_t(i)]);
        if (s < best.score)
            best = Match{perm, s};
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

} // namespace

Mat4
KakDecomposition::reconstruct() const
{
    Mat4 mid = canonicalGate(coords.a, coords.b, coords.c);
    Mat4 out = linalg::kron(l1, l2) * mid * linalg::kron(r1, r2);
    return out * std::polar(1.0, phase);
}

double
KakDecomposition::error(const Mat4 &reference) const
{
    return reconstruct().distance(reference);
}

KakDecomposition
kakDecompose(const Mat4 &u)
{
    MIRAGE_ASSERT(u.isUnitary(1e-8), "kakDecompose needs a unitary input");

    // One Jacobi spectrum of gamma gives the coordinates and the branch.
    GammaSpectrum spec = gammaSpectrum(u);
    KakDecomposition out;
    out.coords = weylCoordinates(spec);
    auto d = canMagicAngles(out.coords.a, out.coords.b, out.coords.c);
    std::array<Complex, 4> lambda, neg_lambda;
    for (int i = 0; i < 4; ++i) {
        lambda[size_t(i)] = std::polar(1.0, 2.0 * d[size_t(i)]);
        neg_lambda[size_t(i)] = -lambda[size_t(i)];
    }

    // The SU(4) representative is only defined up to a 4th root of unity;
    // that scales gamma by +-1. Pick the branch whose spectrum matches the
    // CAN target. Flipping multiplies V by i, so gamma becomes -gamma: O
    // still diagonalizes it, and matching the negated diagonal against
    // lambda is matching the diagonal against -lambda.
    Match pos = bestPermutation(spec.diag, lambda);
    Match neg = bestPermutation(spec.diag, neg_lambda);
    std::array<int, 4> perm = pos.perm;
    if (neg.score < pos.score - kBranchTieMargin) {
        perm = neg.perm;
        spec.v = spec.v * Complex(0, 1);
    }

    // Reorder O's columns to match the target spectrum slot by slot.
    Sym4 op{};
    for (int j = 0; j < 4; ++j)
        for (int i = 0; i < 4; ++i)
            op(i, j) = spec.o(i, perm[size_t(j)]);

    // Land in SO(4); negating one column leaves the diagonalization alone.
    if (linalg::det4(op) < 0) {
        for (int i = 0; i < 4; ++i)
            op(i, 0) = -op(i, 0);
    }

    Mat4 omat;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            omat(i, j) = Complex(op(i, j), 0);

    // V = O D K2 with D = diag(e^{i d_j}); K2 = D^{-1} O^T V comes out
    // real orthogonal when everything above is consistent.
    Mat4 dinv = Mat4::diag(std::polar(1.0, -d[0]), std::polar(1.0, -d[1]),
                           std::polar(1.0, -d[2]), std::polar(1.0, -d[3]));
    Mat4 k2 = dinv * omat.transpose() * spec.v;

    double imag_resid = 0;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            imag_resid = std::max(imag_resid,
                                  std::fabs(k2(i, j).imag()));
    if (imag_resid > 1e-6)
        warn("kak: right factor imaginary residue %.2e", imag_resid);

    // Scrub the residue so the tensor factorization sees a clean SO(4)
    // element.
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            k2(i, j) = Complex(k2(i, j).real(), 0);

    Mat4 l4 = fromMagic(omat);
    Mat4 r4 = fromMagic(k2);

    double el = 0, er = 0;
    linalg::factorTensorProduct(l4, &out.l1, &out.l2, &el);
    linalg::factorTensorProduct(r4, &out.r1, &out.r2, &er);
    if (el > 1e-6 || er > 1e-6)
        warn("kak: tensor factor residue %.2e / %.2e", el, er);

    // Fix the global phase by trace alignment against the input.
    out.phase = 0;
    Mat4 rec = out.reconstruct();
    Complex t = (rec.dagger() * u).trace();
    if (std::abs(t) > 1e-9)
        out.phase = std::arg(t);
    return out;
}

} // namespace mirage::weyl
