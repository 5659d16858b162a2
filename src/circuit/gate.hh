/**
 * @file
 * Gate representation for the circuit IR.
 *
 * Gates carry a kind, qubit operands, real parameters, and (for
 * consolidated blocks) an explicit matrix plus cached Weyl coordinates.
 * Two-qubit matrices use basis order |q0 q1> with the first operand as the
 * most significant bit, matching weyl/catalog.hh.
 */

#ifndef MIRAGE_CIRCUIT_GATE_HH
#define MIRAGE_CIRCUIT_GATE_HH

#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hh"
#include "weyl/coordinates.hh"

namespace mirage::circuit {

using linalg::Mat2;
using linalg::Mat4;
using weyl::Coord;

enum class GateKind
{
    // one-qubit
    I, X, Y, Z, H, S, Sdg, T, Tdg, SX,
    RX, RY, RZ, U3,
    Unitary1Q,
    // two-qubit
    CX, CZ, CP, CRX, CRY, CRZ,
    SWAP, ISWAP, RootISWAP,
    RXX, RYY, RZZ,
    Unitary2Q,
    // three-qubit (unrolled before routing)
    CCX, CSWAP,
    // structural
    Barrier,
};

/** A single circuit operation. */
struct Gate
{
    GateKind kind = GateKind::I;
    std::vector<int> qubits;
    std::vector<double> params;

    /** Explicit matrix for Unitary1Q blocks. */
    std::optional<Mat2> mat2;
    /** Explicit matrix for Unitary2Q blocks. */
    std::optional<Mat4> mat4;
    /** Cached Weyl coordinates (annotated during consolidation/routing). */
    std::optional<Coord> coords;
    /**
     * True when this gate was accepted as a mirror U' = SWAP * U during
     * MIRAGE routing (its matrix already includes the trailing SWAP).
     */
    bool mirrored = false;

    int numQubits() const { return int(qubits.size()); }
    bool isBarrier() const { return kind == GateKind::Barrier; }
    bool isOneQubit() const;
    bool isTwoQubit() const;
    bool isThreeQubit() const;

    /** Gate name in OpenQASM-ish spelling. */
    std::string name() const;

    /** Matrix of a one-qubit gate. */
    Mat2 matrix2() const;
    /** Matrix of a two-qubit gate (first operand = most significant). */
    Mat4 matrix4() const;

    /**
     * Weyl coordinates, computed on demand and NOT cached (use
     * annotateCoords for caching).
     */
    Coord weylCoords() const;
    /** Compute and store coords if absent; returns them. */
    Coord annotateCoords();
};

// Convenience constructors. Operands are checked where a gate joins a
// circuit (Circuit::append throws CircuitError), not here.
Gate makeGate1(GateKind kind, int q, std::vector<double> params = {});
Gate makeGate2(GateKind kind, int a, int b, std::vector<double> params = {});
Gate makeUnitary2(int a, int b, const Mat4 &m);
Gate makeUnitary1(int q, const Mat2 &m);
Gate makeBarrier(std::vector<int> qubits);

} // namespace mirage::circuit

#endif // MIRAGE_CIRCUIT_GATE_HH
