/**
 * @file
 * Statevector simulator.
 *
 * Used by the test suite to prove functional equivalence of transpiled
 * circuits (original vs routed-with-mirrors, up to the qubit permutation
 * the router reports). Practical up to ~22 qubits.
 *
 * Convention: qubit q is bit q of the amplitude index (little-endian), and
 * a two-qubit gate matrix treats its FIRST operand as the most significant
 * bit of the 2-bit local index, matching weyl/catalog.hh.
 */

#ifndef MIRAGE_CIRCUIT_SIM_HH
#define MIRAGE_CIRCUIT_SIM_HH

#include <complex>
#include <vector>

#include "circuit/circuit.hh"
#include "common/rng.hh"

namespace mirage::circuit {

using linalg::Complex;

/** A dense statevector on n qubits. */
class StateVector
{
  public:
    explicit StateVector(int num_qubits);

    int numQubits() const { return numQubits_; }
    const std::vector<Complex> &amplitudes() const { return amps_; }
    std::vector<Complex> &amplitudes() { return amps_; }

    /** Reset to |0...0>. */
    void reset();
    /** Haar-ish random state (normalized complex Gaussian amplitudes). */
    void randomize(Rng &rng);

    void applyMat2(int q, const Mat2 &m);
    void applyMat4(int q_hi, int q_lo, const Mat4 &m);
    void applyGate(const Gate &g);
    void applyCircuit(const Circuit &c);

    double norm() const;
    Complex inner(const StateVector &o) const;

    /**
     * Relabeled copy: qubit q of this state becomes qubit perm[q] of the
     * result (perm must be a bijection on [0, n)).
     */
    StateVector permuted(const std::vector<int> &perm) const;

  private:
    int numQubits_;
    std::vector<Complex> amps_;
};

/**
 * Full-circuit functional check: simulate `a` and `b` from a shared random
 * initial state and return the overlap magnitude after relabeling b's
 * qubit q to perm[q]. 1.0 means equivalent up to global phase.
 */
double circuitOverlap(const Circuit &a, const Circuit &b,
                      const std::vector<int> &perm, Rng &rng);

} // namespace mirage::circuit

#endif // MIRAGE_CIRCUIT_SIM_HH
