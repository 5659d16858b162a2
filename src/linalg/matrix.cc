/**
 * @file
 * Fixed-size complex matrix/vector operations: products, adjoints,
 * determinants, norms, and Kronecker products for the 2x2/4x4 types,
 * plus the 1e-9 quantization cell that keys the unitary caches.
 *
 * The product/adjoint/Kronecker kernels are hand-unrolled over raw
 * doubles (std::complex guarantees array-of-double layout) so the
 * compiler can vectorize them: std::complex multiplication compiles to
 * the naive formula plus a NaN-recovery branch (__muldc3) that blocks
 * SIMD, while the raw form is branch-free. Each kernel preserves the
 * reference accumulation order and the naive product formula
 * (ar*br - ai*bi, ar*bi + ai*br), so for finite inputs the results are
 * BIT-IDENTICAL to the scalar implementations kept in
 * tests/support/linalg_reference.hh -- the contract
 * tests/test_linalg_kernels.cc enforces, and what keeps fitted
 * decompositions, golden snapshots, and the committed FIT_CATALOG.bin
 * stable across the rewrite.
 */

#include "linalg/matrix.hh"

#include <cmath>

#include "common/logging.hh"

namespace mirage::linalg {

namespace {

/** std::complex<double> arrays may be accessed as double pairs. */
inline const double *
flat(const Complex *p)
{
    return reinterpret_cast<const double *>(p);
}

inline double *
flat(Complex *p)
{
    return reinterpret_cast<double *>(p);
}

} // namespace

Mat2
Mat2::identity()
{
    Mat2 m;
    m.a = {Complex(1), Complex(0), Complex(0), Complex(1)};
    return m;
}

Mat2
Mat2::operator+(const Mat2 &o) const
{
    Mat2 r;
    for (size_t i = 0; i < 4; ++i)
        r.a[i] = a[i] + o.a[i];
    return r;
}

Mat2
Mat2::operator-(const Mat2 &o) const
{
    Mat2 r;
    for (size_t i = 0; i < 4; ++i)
        r.a[i] = a[i] - o.a[i];
    return r;
}

Mat2
Mat2::operator*(const Mat2 &o) const
{
    // Unrolled raw-double form of r(i,j) = a(i,0)*b(0,j) + a(i,1)*b(1,j):
    // same product formula and summation order as the reference kernel.
    const double *A = flat(a.data());
    const double *B = flat(o.a.data());
    Mat2 out;
    double *R = flat(out.a.data());
    for (int i = 0; i < 2; ++i) {
        const double a0r = A[4 * i], a0i = A[4 * i + 1];
        const double a1r = A[4 * i + 2], a1i = A[4 * i + 3];
        for (int j = 0; j < 2; ++j) {
            const double b0r = B[2 * j], b0i = B[2 * j + 1];
            const double b1r = B[4 + 2 * j], b1i = B[4 + 2 * j + 1];
            R[4 * i + 2 * j] =
                (a0r * b0r - a0i * b0i) + (a1r * b1r - a1i * b1i);
            R[4 * i + 2 * j + 1] =
                (a0r * b0i + a0i * b0r) + (a1r * b1i + a1i * b1r);
        }
    }
    return out;
}

Mat2
Mat2::operator*(Complex s) const
{
    const double sr = s.real(), si = s.imag();
    const double *A = flat(a.data());
    Mat2 out;
    double *R = flat(out.a.data());
    for (size_t i = 0; i < 4; ++i) {
        const double vr = A[2 * i], vi = A[2 * i + 1];
        R[2 * i] = vr * sr - vi * si;
        R[2 * i + 1] = vr * si + vi * sr;
    }
    return out;
}

Mat2
Mat2::dagger() const
{
    // Transposed copy with negated imaginary parts (conjugation is
    // exact, so this is trivially bit-identical to the reference).
    const double *A = flat(a.data());
    Mat2 out;
    double *R = flat(out.a.data());
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            R[4 * i + 2 * j] = A[4 * j + 2 * i];
            R[4 * i + 2 * j + 1] = -A[4 * j + 2 * i + 1];
        }
    }
    return out;
}

Mat2
Mat2::conj() const
{
    Mat2 r;
    for (size_t i = 0; i < 4; ++i)
        r.a[i] = std::conj(a[i]);
    return r;
}

Mat4
Mat4::identity()
{
    Mat4 m;
    for (int i = 0; i < 4; ++i)
        m(i, i) = Complex(1);
    return m;
}

Mat4
Mat4::diag(Complex d0, Complex d1, Complex d2, Complex d3)
{
    Mat4 m;
    m(0, 0) = d0;
    m(1, 1) = d1;
    m(2, 2) = d2;
    m(3, 3) = d3;
    return m;
}

Mat4
Mat4::operator+(const Mat4 &o) const
{
    Mat4 r;
    for (size_t i = 0; i < 16; ++i)
        r.a[i] = a[i] + o.a[i];
    return r;
}

Mat4
Mat4::operator-(const Mat4 &o) const
{
    Mat4 r;
    for (size_t i = 0; i < 16; ++i)
        r.a[i] = a[i] - o.a[i];
    return r;
}

Mat4
Mat4::operator*(const Mat4 &o) const
{
    // ikj product over raw doubles. The zero-skip and the k-ascending
    // accumulation order replicate the reference kernel exactly (the
    // skip also preserves the signed zeros a naively-included 0*B row
    // would perturb); the branch-free 8-double row update is what the
    // compiler vectorizes. This is the hot kernel of ansatzFidelity and
    // therefore of every numerical fit.
    const double *A = flat(a.data());
    const double *B = flat(o.a.data());
    Mat4 out;
    double *R = flat(out.a.data());
    for (int i = 0; i < 4; ++i) {
        double *rrow = R + 8 * i;
        for (int k = 0; k < 4; ++k) {
            const double vr = A[8 * i + 2 * k], vi = A[8 * i + 2 * k + 1];
            if (vr == 0.0 && vi == 0.0)
                continue;
            const double *brow = B + 8 * k;
            for (int j = 0; j < 4; ++j) {
                const double br = brow[2 * j], bi = brow[2 * j + 1];
                rrow[2 * j] += vr * br - vi * bi;
                rrow[2 * j + 1] += vr * bi + vi * br;
            }
        }
    }
    return out;
}

Mat4
Mat4::operator*(Complex s) const
{
    const double sr = s.real(), si = s.imag();
    const double *A = flat(a.data());
    Mat4 out;
    double *R = flat(out.a.data());
    for (size_t i = 0; i < 16; ++i) {
        const double vr = A[2 * i], vi = A[2 * i + 1];
        R[2 * i] = vr * sr - vi * si;
        R[2 * i + 1] = vr * si + vi * sr;
    }
    return out;
}

Mat4
Mat4::dagger() const
{
    // Transposed copy with negated imaginary parts (conjugation is
    // exact, so this is trivially bit-identical to the reference).
    const double *A = flat(a.data());
    Mat4 out;
    double *R = flat(out.a.data());
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            R[8 * i + 2 * j] = A[8 * j + 2 * i];
            R[8 * i + 2 * j + 1] = -A[8 * j + 2 * i + 1];
        }
    }
    return out;
}

Mat4
Mat4::transpose() const
{
    Mat4 r;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            r(i, j) = (*this)(j, i);
    return r;
}

Mat4
Mat4::conj() const
{
    Mat4 r;
    for (size_t i = 0; i < 16; ++i)
        r.a[i] = std::conj(a[i]);
    return r;
}

Complex
Mat4::trace() const
{
    return a[0] + a[5] + a[10] + a[15];
}

Complex
Mat4::det() const
{
    // LU with partial pivoting on a scratch copy.
    Mat4 m = *this;
    Complex det(1);
    for (int col = 0; col < 4; ++col) {
        int pivot = col;
        double best = std::abs(m(col, col));
        for (int r = col + 1; r < 4; ++r) {
            double mag = std::abs(m(r, col));
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best == 0.0)
            return Complex(0);
        if (pivot != col) {
            for (int c = 0; c < 4; ++c)
                std::swap(m(pivot, c), m(col, c));
            det = -det;
        }
        det *= m(col, col);
        for (int r = col + 1; r < 4; ++r) {
            Complex f = m(r, col) / m(col, col);
            for (int c = col; c < 4; ++c)
                m(r, c) -= f * m(col, c);
        }
    }
    return det;
}

double
Mat4::distance(const Mat4 &o) const
{
    double s = 0;
    for (size_t i = 0; i < 16; ++i)
        s += std::norm(a[i] - o.a[i]);
    return std::sqrt(s);
}

double
Mat4::maxAbsDiff(const Mat4 &o) const
{
    double best = 0;
    for (size_t i = 0; i < 16; ++i)
        best = std::max(best, std::abs(a[i] - o.a[i]));
    return best;
}

double
Mat4::frobeniusNorm() const
{
    double s = 0;
    for (size_t i = 0; i < 16; ++i)
        s += std::norm(a[i]);
    return std::sqrt(s);
}

bool
Mat4::isUnitary(double tol) const
{
    Mat4 p = (*this) * dagger();
    return p.maxAbsDiff(Mat4::identity()) < tol;
}

Mat4
kron(const Mat2 &x, const Mat2 &y)
{
    // One naive complex product per output entry, in the same entry
    // order as the reference loop nest.
    const double *X = flat(x.a.data());
    const double *Y = flat(y.a.data());
    Mat4 out;
    double *R = flat(out.a.data());
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) {
            const double xr = X[4 * i + 2 * j], xi = X[4 * i + 2 * j + 1];
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l) {
                    const double yr = Y[4 * k + 2 * l];
                    const double yi = Y[4 * k + 2 * l + 1];
                    const int idx = 8 * (2 * i + k) + 2 * (2 * j + l);
                    R[idx] = xr * yr - xi * yi;
                    R[idx + 1] = xr * yi + xi * yr;
                }
        }
    return out;
}

Mat2
pauliX()
{
    Mat2 m;
    m(0, 1) = 1;
    m(1, 0) = 1;
    return m;
}

Mat2
pauliY()
{
    Mat2 m;
    m(0, 1) = Complex(0, -1);
    m(1, 0) = Complex(0, 1);
    return m;
}

Mat2
pauliZ()
{
    Mat2 m;
    m(0, 0) = 1;
    m(1, 1) = -1;
    return m;
}

Mat2
hadamard()
{
    const double s = 1.0 / std::sqrt(2.0);
    Mat2 m;
    m(0, 0) = s;
    m(0, 1) = s;
    m(1, 0) = s;
    m(1, 1) = -s;
    return m;
}

Mat4
pauliXX()
{
    return kron(pauliX(), pauliX());
}

Mat4
pauliYY()
{
    return kron(pauliY(), pauliY());
}

double
processFidelity(const Mat4 &a, const Mat4 &b)
{
    Complex t = (a.dagger() * b).trace();
    return std::norm(t) / 16.0;
}

double
averageGateFidelity(const Mat4 &a, const Mat4 &b)
{
    const double d = 4.0;
    double fpro = processFidelity(a, b);
    return (d * fpro + 1.0) / (d + 1.0);
}

void
factorTensorProduct(const Mat4 &m, Mat2 *x, Mat2 *y, double *error)
{
    MIRAGE_ASSERT(x && y, "null output factor");

    // View m as a 2x2 block matrix m = [[a00*y, a01*y], [a10*y, a11*y]].
    // Pick the block with the largest norm as a scaled copy of y.
    int bi = 0, bj = 0;
    double best = -1;
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            double s = 0;
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l)
                    s += std::norm(m(2 * i + k, 2 * j + l));
            if (s > best) {
                best = s;
                bi = i;
                bj = j;
            }
        }
    }

    Mat2 yblk;
    for (int k = 0; k < 2; ++k)
        for (int l = 0; l < 2; ++l)
            yblk(k, l) = m(2 * bi + k, 2 * bj + l);
    // Normalize so y is (approximately) unitary: block = a_{bi,bj} * y with
    // |det(block)| = |a|^2 |det y| = |a|^2 for unitary y.
    Complex dblk = yblk.det();
    double scale = std::sqrt(std::abs(dblk));
    MIRAGE_ASSERT(scale > 1e-12, "tensor factor block is singular");
    Mat2 yhat = yblk * Complex(1.0 / scale);

    // Recover x entries by projecting each block onto yhat.
    Mat2 xhat;
    double ynorm2 = 0;
    for (size_t i = 0; i < 4; ++i)
        ynorm2 += std::norm(yhat.a[i]);
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            Complex acc(0);
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l)
                    acc += std::conj(yhat(k, l)) * m(2 * i + k, 2 * j + l);
            xhat(i, j) = acc / ynorm2;
        }
    }

    if (error) {
        Mat4 rec = kron(xhat, yhat);
        // Phase-align before measuring the residual.
        Complex t = (rec.dagger() * m).trace();
        Complex phase = std::abs(t) > 1e-12 ? t / std::abs(t) : Complex(1);
        *error = (rec * phase).distance(m);
    }
    *x = xhat;
    *y = yhat;
}

QuantizedMat
quantize(const Mat4 &m)
{
    QuantizedMat q;
    for (size_t i = 0; i < m.a.size(); ++i) {
        q[2 * i] = int64_t(std::llround(m.a[i].real() * 1e9));
        q[2 * i + 1] = int64_t(std::llround(m.a[i].imag() * 1e9));
    }
    return q;
}

Mat4
dequantize(const QuantizedMat &q)
{
    Mat4 m;
    for (size_t i = 0; i < m.a.size(); ++i)
        m.a[i] = Complex(double(q[2 * i]) * 1e-9,
                         double(q[2 * i + 1]) * 1e-9);
    return m;
}

uint64_t
hashQuantized(const QuantizedMat &q, uint64_t basis)
{
    uint64_t h = basis;
    for (int64_t v : q) {
        h ^= uint64_t(v);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace mirage::linalg
