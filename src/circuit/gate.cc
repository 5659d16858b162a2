/**
 * @file
 * Gate implementation: names, operand/parameter accessors, and matrix
 * realization for standard gates and consolidated Unitary1Q/Unitary2Q
 * blocks.
 */

#include "circuit/gate.hh"

#include <cmath>

#include "common/logging.hh"
#include "weyl/catalog.hh"

namespace mirage::circuit {

using namespace mirage::weyl;

bool
Gate::isOneQubit() const
{
    return !isBarrier() && numQubits() == 1;
}

bool
Gate::isTwoQubit() const
{
    return !isBarrier() && numQubits() == 2;
}

bool
Gate::isThreeQubit() const
{
    return !isBarrier() && numQubits() == 3;
}

std::string
Gate::name() const
{
    switch (kind) {
      case GateKind::I: return "id";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::H: return "h";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::SX: return "sx";
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::U3: return "u3";
      case GateKind::Unitary1Q: return "u1q";
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::CP: return "cp";
      case GateKind::CRX: return "crx";
      case GateKind::CRY: return "cry";
      case GateKind::CRZ: return "crz";
      case GateKind::SWAP: return "swap";
      case GateKind::ISWAP: return "iswap";
      case GateKind::RootISWAP: return "riswap";
      case GateKind::RXX: return "rxx";
      case GateKind::RYY: return "ryy";
      case GateKind::RZZ: return "rzz";
      case GateKind::Unitary2Q: return mirrored ? "u2q*" : "u2q";
      case GateKind::CCX: return "ccx";
      case GateKind::CSWAP: return "cswap";
      case GateKind::Barrier: return "barrier";
    }
    return "?";
}

Mat2
Gate::matrix2() const
{
    MIRAGE_ASSERT(isOneQubit(), "matrix2 on non-1q gate %s", name().c_str());
    switch (kind) {
      case GateKind::I: return gateI2();
      case GateKind::X: return gateX();
      case GateKind::Y: return gateY();
      case GateKind::Z: return gateZ();
      case GateKind::H: return gateH();
      case GateKind::S: return gateS();
      case GateKind::Sdg: return gateSdg();
      case GateKind::T: return gateT();
      case GateKind::Tdg: return gateTdg();
      case GateKind::SX: return gateSX();
      case GateKind::RX: return gateRX(params.at(0));
      case GateKind::RY: return gateRY(params.at(0));
      case GateKind::RZ: return gateRZ(params.at(0));
      case GateKind::U3:
        return gateU3(params.at(0), params.at(1), params.at(2));
      case GateKind::Unitary1Q:
        MIRAGE_ASSERT(mat2.has_value(), "u1q without matrix");
        return *mat2;
      default:
        panic("matrix2 on gate kind %d", int(kind));
    }
}

Mat4
Gate::matrix4() const
{
    MIRAGE_ASSERT(isTwoQubit(), "matrix4 on non-2q gate %s", name().c_str());
    switch (kind) {
      case GateKind::CX: return gateCX();
      case GateKind::CZ: return gateCZ();
      case GateKind::CP: return gateCP(params.at(0));
      case GateKind::CRX: return gateCRX(params.at(0));
      case GateKind::CRY: return gateCRY(params.at(0));
      case GateKind::CRZ: return gateCRZ(params.at(0));
      case GateKind::SWAP: return gateSWAP();
      case GateKind::ISWAP: return gateISWAP();
      case GateKind::RootISWAP: return gateRootISWAP(int(params.at(0)));
      case GateKind::RXX: return gateRXX(params.at(0));
      case GateKind::RYY: return gateRYY(params.at(0));
      case GateKind::RZZ: return gateRZZ(params.at(0));
      case GateKind::Unitary2Q:
        MIRAGE_ASSERT(mat4.has_value(), "u2q without matrix");
        return *mat4;
      default:
        panic("matrix4 on gate kind %d", int(kind));
    }
}

Coord
Gate::weylCoords() const
{
    if (coords.has_value())
        return *coords;
    return weyl::weylCoordinates(matrix4());
}

Coord
Gate::annotateCoords()
{
    if (!coords.has_value())
        coords = weyl::weylCoordinates(matrix4());
    return *coords;
}

Gate
makeGate1(GateKind kind, int q, std::vector<double> params)
{
    Gate g;
    g.kind = kind;
    g.qubits = {q};
    g.params = std::move(params);
    return g;
}

Gate
makeGate2(GateKind kind, int a, int b, std::vector<double> params)
{
    Gate g;
    g.kind = kind;
    g.qubits = {a, b};
    g.params = std::move(params);
    return g;
}

Gate
makeUnitary2(int a, int b, const Mat4 &m)
{
    Gate g = makeGate2(GateKind::Unitary2Q, a, b);
    g.mat4 = m;
    return g;
}

Gate
makeUnitary1(int q, const Mat2 &m)
{
    Gate g = makeGate1(GateKind::Unitary1Q, q);
    g.mat2 = m;
    return g;
}

Gate
makeBarrier(std::vector<int> qubits)
{
    Gate g;
    g.kind = GateKind::Barrier;
    g.qubits = std::move(qubits);
    return g;
}

} // namespace mirage::circuit
