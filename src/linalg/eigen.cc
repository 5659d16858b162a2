/**
 * @file
 * Small-matrix eigensolvers: cyclic Jacobi for real symmetric 4x4
 * matrices and simultaneous diagonalization of a commuting pair.
 */

#include "linalg/eigen.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"

namespace mirage::linalg {

Sym4
congruence(const Sym4 &v, const Sym4 &m)
{
    // r = v^T m v
    Sym4 t{}; // m v
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            double s = 0;
            for (int k = 0; k < 4; ++k)
                s += m(i, k) * v(k, j);
            t(i, j) = s;
        }
    Sym4 r{};
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            double s = 0;
            for (int k = 0; k < 4; ++k)
                s += v(k, i) * t(k, j);
            r(i, j) = s;
        }
    return r;
}

double
det4(const Sym4 &m)
{
    Sym4 a = m;
    double det = 1;
    for (int col = 0; col < 4; ++col) {
        int pivot = col;
        double best = std::fabs(a(col, col));
        for (int r = col + 1; r < 4; ++r) {
            if (std::fabs(a(r, col)) > best) {
                best = std::fabs(a(r, col));
                pivot = r;
            }
        }
        if (best == 0.0)
            return 0.0;
        if (pivot != col) {
            for (int c = 0; c < 4; ++c)
                std::swap(a(pivot, c), a(col, c));
            det = -det;
        }
        det *= a(col, col);
        for (int r = col + 1; r < 4; ++r) {
            double f = a(r, col) / a(col, col);
            for (int c = col; c < 4; ++c)
                a(r, c) -= f * a(col, c);
        }
    }
    return det;
}

SymEig4
jacobiEigen4(const Sym4 &m)
{
    Sym4 a = m;
    Sym4 v{};
    for (int i = 0; i < 4; ++i)
        v(i, i) = 1.0;

    for (int sweep = 0; sweep < 60; ++sweep) {
        double off = 0;
        for (int p = 0; p < 4; ++p)
            for (int q = p + 1; q < 4; ++q)
                off += a(p, q) * a(p, q);
        if (off < 1e-28)
            break;

        for (int p = 0; p < 4; ++p) {
            for (int q = p + 1; q < 4; ++q) {
                if (std::fabs(a(p, q)) < 1e-300)
                    continue;
                double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
                double t = (theta >= 0 ? 1.0 : -1.0) /
                           (std::fabs(theta) +
                            std::sqrt(theta * theta + 1.0));
                double cth = 1.0 / std::sqrt(t * t + 1.0);
                double sth = t * cth;

                for (int k = 0; k < 4; ++k) {
                    double akp = a(k, p), akq = a(k, q);
                    a(k, p) = cth * akp - sth * akq;
                    a(k, q) = sth * akp + cth * akq;
                }
                for (int k = 0; k < 4; ++k) {
                    double apk = a(p, k), aqk = a(q, k);
                    a(p, k) = cth * apk - sth * aqk;
                    a(q, k) = sth * apk + cth * aqk;
                }
                for (int k = 0; k < 4; ++k) {
                    double vkp = v(k, p), vkq = v(k, q);
                    v(k, p) = cth * vkp - sth * vkq;
                    v(k, q) = sth * vkp + cth * vkq;
                }
            }
        }
    }

    SymEig4 out;
    for (int i = 0; i < 4; ++i)
        out.values[size_t(i)] = a(i, i);
    out.vectors = v;
    return out;
}

Sym4
simultaneousDiagonalize(const Sym4 &a, const Sym4 &b, double degeneracy_tol)
{
    SymEig4 ea = jacobiEigen4(a);

    // Sort eigenpairs of a (descending) so degenerate clusters are
    // contiguous.
    std::array<int, 4> order = {0, 1, 2, 3};
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        return ea.values[size_t(x)] > ea.values[size_t(y)];
    });
    Sym4 v{};
    std::array<double, 4> w{};
    for (int j = 0; j < 4; ++j) {
        w[size_t(j)] = ea.values[size_t(order[size_t(j)])];
        for (int i = 0; i < 4; ++i)
            v(i, j) = ea.vectors(i, order[size_t(j)]);
    }

    // b in the eigenbasis of a; block-diagonal across a's eigenspaces.
    Sym4 bv = congruence(v, b);

    // Walk degenerate clusters of a and rotate within each to diagonalize
    // the corresponding block of b. Clusters of size <= 1 need nothing;
    // larger ones get a small dense Jacobi on the block.
    int start = 0;
    while (start < 4) {
        int end = start + 1;
        while (end < 4 &&
               std::fabs(w[size_t(end)] - w[size_t(start)]) < degeneracy_tol)
            ++end;
        int size = end - start;
        if (size > 1) {
            // Jacobi on the sub-block bv[start:end, start:end].
            const size_t n = size_t(size);
            std::vector<std::vector<double>> blk(
                n, std::vector<double>(n, 0.0));
            for (int i = 0; i < size; ++i)
                for (int j = 0; j < size; ++j)
                    blk[size_t(i)][size_t(j)] = bv(start + i, start + j);
            std::vector<std::vector<double>> rot(
                size_t(size), std::vector<double>(size_t(size), 0.0));
            for (int i = 0; i < size; ++i)
                rot[size_t(i)][size_t(i)] = 1.0;

            for (int sweep = 0; sweep < 50; ++sweep) {
                double off = 0;
                for (int p = 0; p < size; ++p)
                    for (int q = p + 1; q < size; ++q)
                        off += blk[size_t(p)][size_t(q)] *
                               blk[size_t(p)][size_t(q)];
                if (off < 1e-28)
                    break;
                for (int p = 0; p < size; ++p) {
                    for (int q = p + 1; q < size; ++q) {
                        double bpq = blk[size_t(p)][size_t(q)];
                        if (std::fabs(bpq) < 1e-300)
                            continue;
                        double theta =
                            (blk[size_t(q)][size_t(q)] -
                             blk[size_t(p)][size_t(p)]) / (2.0 * bpq);
                        double t = (theta >= 0 ? 1.0 : -1.0) /
                                   (std::fabs(theta) +
                                    std::sqrt(theta * theta + 1.0));
                        double cth = 1.0 / std::sqrt(t * t + 1.0);
                        double sth = t * cth;
                        for (int k = 0; k < size; ++k) {
                            double bkp = blk[size_t(k)][size_t(p)];
                            double bkq = blk[size_t(k)][size_t(q)];
                            blk[size_t(k)][size_t(p)] = cth * bkp - sth * bkq;
                            blk[size_t(k)][size_t(q)] = sth * bkp + cth * bkq;
                        }
                        for (int k = 0; k < size; ++k) {
                            double bpk = blk[size_t(p)][size_t(k)];
                            double bqk = blk[size_t(q)][size_t(k)];
                            blk[size_t(p)][size_t(k)] = cth * bpk - sth * bqk;
                            blk[size_t(q)][size_t(k)] = sth * bpk + cth * bqk;
                        }
                        for (int k = 0; k < size; ++k) {
                            double rkp = rot[size_t(k)][size_t(p)];
                            double rkq = rot[size_t(k)][size_t(q)];
                            rot[size_t(k)][size_t(p)] = cth * rkp - sth * rkq;
                            rot[size_t(k)][size_t(q)] = sth * rkp + cth * rkq;
                        }
                    }
                }
            }

            // Fold the block rotation into v.
            Sym4 vr = v;
            for (int i = 0; i < 4; ++i) {
                for (int j = 0; j < size; ++j) {
                    double s = 0;
                    for (int k = 0; k < size; ++k)
                        s += v(i, start + k) * rot[size_t(k)][size_t(j)];
                    vr(i, start + j) = s;
                }
            }
            v = vr;
            bv = congruence(v, b);
        }
        start = end;
    }
    return v;
}

} // namespace mirage::linalg
