/**
 * @file
 * Scalar reference kernels: verbatim copies of the pre-vectorization
 * std::complex implementations. The differential tests compare these
 * against the optimized production kernels for bit-identity.
 */

#include "support/linalg_reference.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mirage::linalg::reference {

Mat2
matmul2(const Mat2 &a, const Mat2 &b)
{
    Mat2 r;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            r(i, j) = a(i, 0) * b(0, j) + a(i, 1) * b(1, j);
    return r;
}

Mat4
matmul4(const Mat4 &a, const Mat4 &b)
{
    Mat4 r;
    for (int i = 0; i < 4; ++i) {
        for (int k = 0; k < 4; ++k) {
            Complex v = a(i, k);
            if (v == Complex(0))
                continue;
            for (int j = 0; j < 4; ++j)
                r(i, j) += v * b(k, j);
        }
    }
    return r;
}

Mat2
dagger2(const Mat2 &m)
{
    Mat2 r;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            r(i, j) = std::conj(m(j, i));
    return r;
}

Mat4
dagger4(const Mat4 &m)
{
    Mat4 r;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            r(i, j) = std::conj(m(j, i));
    return r;
}

Mat2
conj2(const Mat2 &m)
{
    Mat2 r;
    for (size_t i = 0; i < 4; ++i)
        r.a[i] = std::conj(m.a[i]);
    return r;
}

Mat4
conj4(const Mat4 &m)
{
    Mat4 r;
    for (size_t i = 0; i < 16; ++i)
        r.a[i] = std::conj(m.a[i]);
    return r;
}

Mat2
scale2(const Mat2 &m, Complex s)
{
    Mat2 r;
    for (size_t i = 0; i < 4; ++i)
        r.a[i] = m.a[i] * s;
    return r;
}

Mat4
scale4(const Mat4 &m, Complex s)
{
    Mat4 r;
    for (size_t i = 0; i < 16; ++i)
        r.a[i] = m.a[i] * s;
    return r;
}

Mat4
kron(const Mat2 &x, const Mat2 &y)
{
    Mat4 r;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l)
                    r(2 * i + k, 2 * j + l) = x(i, j) * y(k, l);
    return r;
}

double
processFidelity(const Mat4 &a, const Mat4 &b)
{
    Complex t = matmul4(dagger4(a), b).trace();
    return std::norm(t) / 16.0;
}

Mat4
expm(const Mat4 &m)
{
    double norm = m.frobeniusNorm();
    int squarings = 0;
    double scale = 1.0;
    while (norm * scale > 0.5) {
        scale *= 0.5;
        ++squarings;
    }

    Mat4 x = scale4(m, Complex(scale));
    Mat4 term = Mat4::identity();
    Mat4 sum = Mat4::identity();
    for (int k = 1; k <= 16; ++k) {
        term = scale4(matmul4(term, x), Complex(1.0 / k));
        sum = sum + term;
    }
    for (int s = 0; s < squarings; ++s)
        sum = matmul4(sum, sum);
    return sum;
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

namespace {

Sym4
congruenceRef(const Sym4 &v, const Sym4 &m)
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

} // namespace

Sym4
simultaneousDiagonalize(const Sym4 &a, const Sym4 &b, double degeneracy_tol)
{
    // Qualified: ADL on Sym4 would also find linalg::jacobiEigen4.
    SymEig4 ea = reference::jacobiEigen4(a);

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

    Sym4 bv = congruenceRef(v, b);

    int start = 0;
    while (start < 4) {
        int end = start + 1;
        while (end < 4 &&
               std::fabs(w[size_t(end)] - w[size_t(start)]) < degeneracy_tol)
            ++end;
        int size = end - start;
        if (size > 1) {
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
            bv = congruenceRef(v, b);
        }
        start = end;
    }
    return v;
}

} // namespace mirage::linalg::reference
