/**
 * @file
 * Statevector simulator: gate application kernels, qubit permutation,
 * and inner products used to prove functional equivalence of routed
 * circuits in the tests.
 */

#include "circuit/sim.hh"

#include <cmath>

#include "common/logging.hh"

namespace mirage::circuit {

StateVector::StateVector(int num_qubits)
    : numQubits_(num_qubits), amps_(size_t(1) << num_qubits)
{
    MIRAGE_ASSERT(num_qubits >= 1 && num_qubits <= 26,
                  "statevector size out of range: %d", num_qubits);
    amps_[0] = Complex(1);
}

void
StateVector::reset()
{
    std::fill(amps_.begin(), amps_.end(), Complex(0));
    amps_[0] = Complex(1);
}

void
StateVector::randomize(Rng &rng)
{
    double total = 0;
    for (auto &a : amps_) {
        a = Complex(rng.normal(), rng.normal());
        total += std::norm(a);
    }
    double scale = 1.0 / std::sqrt(total);
    for (auto &a : amps_)
        a *= scale;
}

void
StateVector::applyMat2(int q, const Mat2 &m)
{
    const size_t bit = size_t(1) << q;
    const size_t n = amps_.size();
    for (size_t i = 0; i < n; ++i) {
        if (i & bit)
            continue;
        Complex a0 = amps_[i];
        Complex a1 = amps_[i | bit];
        amps_[i] = m(0, 0) * a0 + m(0, 1) * a1;
        amps_[i | bit] = m(1, 0) * a0 + m(1, 1) * a1;
    }
}

void
StateVector::applyMat4(int q_hi, int q_lo, const Mat4 &m)
{
    MIRAGE_ASSERT(q_hi != q_lo, "two-qubit gate with equal operands");
    const size_t bh = size_t(1) << q_hi;
    const size_t bl = size_t(1) << q_lo;
    const size_t n = amps_.size();
    for (size_t i = 0; i < n; ++i) {
        if (i & (bh | bl))
            continue;
        const size_t i00 = i;
        const size_t i01 = i | bl;
        const size_t i10 = i | bh;
        const size_t i11 = i | bh | bl;
        Complex a00 = amps_[i00], a01 = amps_[i01];
        Complex a10 = amps_[i10], a11 = amps_[i11];
        amps_[i00] = m(0, 0) * a00 + m(0, 1) * a01 + m(0, 2) * a10 +
                     m(0, 3) * a11;
        amps_[i01] = m(1, 0) * a00 + m(1, 1) * a01 + m(1, 2) * a10 +
                     m(1, 3) * a11;
        amps_[i10] = m(2, 0) * a00 + m(2, 1) * a01 + m(2, 2) * a10 +
                     m(2, 3) * a11;
        amps_[i11] = m(3, 0) * a00 + m(3, 1) * a01 + m(3, 2) * a10 +
                     m(3, 3) * a11;
    }
}

void
StateVector::applyGate(const Gate &g)
{
    if (g.isBarrier())
        return;
    if (g.isOneQubit()) {
        applyMat2(g.qubits[0], g.matrix2());
        return;
    }
    if (g.isTwoQubit()) {
        applyMat4(g.qubits[0], g.qubits[1], g.matrix4());
        return;
    }
    // Three-qubit gates, applied with direct bit manipulation.
    if (g.kind == GateKind::CCX) {
        const size_t c0 = size_t(1) << g.qubits[0];
        const size_t c1 = size_t(1) << g.qubits[1];
        const size_t t = size_t(1) << g.qubits[2];
        for (size_t i = 0; i < amps_.size(); ++i) {
            if ((i & c0) && (i & c1) && !(i & t))
                std::swap(amps_[i], amps_[i | t]);
        }
        return;
    }
    if (g.kind == GateKind::CSWAP) {
        const size_t c = size_t(1) << g.qubits[0];
        const size_t a = size_t(1) << g.qubits[1];
        const size_t b = size_t(1) << g.qubits[2];
        for (size_t i = 0; i < amps_.size(); ++i) {
            if ((i & c) && (i & a) && !(i & b))
                std::swap(amps_[i], amps_[(i & ~a) | b]);
        }
        return;
    }
    panic("simulator cannot apply gate %s", g.name().c_str());
}

void
StateVector::applyCircuit(const Circuit &c)
{
    MIRAGE_ASSERT(c.numQubits() <= numQubits_,
                  "circuit larger than state vector");
    for (const auto &g : c.gates())
        applyGate(g);
}

double
StateVector::norm() const
{
    double s = 0;
    for (const auto &a : amps_)
        s += std::norm(a);
    return std::sqrt(s);
}

Complex
StateVector::inner(const StateVector &o) const
{
    MIRAGE_ASSERT(amps_.size() == o.amps_.size(), "dimension mismatch");
    Complex s(0);
    for (size_t i = 0; i < amps_.size(); ++i)
        s += std::conj(amps_[i]) * o.amps_[i];
    return s;
}

StateVector
StateVector::permuted(const std::vector<int> &perm) const
{
    MIRAGE_ASSERT(int(perm.size()) == numQubits_, "bad permutation size");
    StateVector out(numQubits_);
    const size_t n = amps_.size();
    for (size_t i = 0; i < n; ++i) {
        size_t j = 0;
        for (int q = 0; q < numQubits_; ++q) {
            if (i & (size_t(1) << q))
                j |= size_t(1) << perm[size_t(q)];
        }
        out.amps_[j] = amps_[i];
    }
    return out;
}

double
circuitOverlap(const Circuit &a, const Circuit &b,
               const std::vector<int> &perm, Rng &rng)
{
    int n = std::max(a.numQubits(), b.numQubits());
    StateVector sa(n), sb(n);
    sa.randomize(rng);
    sb = sa;
    sa.applyCircuit(a);
    sb.applyCircuit(b);
    return std::abs(sa.inner(sb.permuted(perm)));
}

} // namespace mirage::circuit
