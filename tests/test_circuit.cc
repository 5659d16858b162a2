/**
 * @file
 * Tests for the circuit IR: gates, DAG, simulator, consolidation, QASM.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/consolidate.hh"
#include "circuit/qasm.hh"
#include "circuit/sim.hh"
#include "common/rng.hh"
#include "linalg/random_unitary.hh"
#include "weyl/catalog.hh"

using namespace mirage;
using namespace mirage::circuit;
using linalg::Complex;

TEST(Gate, MatrixDispatch)
{
    Gate cx = makeGate2(GateKind::CX, 0, 1);
    EXPECT_LT(cx.matrix4().distance(weyl::gateCX()), 1e-12);
    Gate h = makeGate1(GateKind::H, 0);
    EXPECT_NEAR(std::abs(h.matrix2()(0, 0) - Complex(1 / std::sqrt(2.0))),
                0.0, 1e-12);
}

TEST(Gate, CoordsAnnotation)
{
    Gate cx = makeGate2(GateKind::CX, 0, 1);
    EXPECT_FALSE(cx.coords.has_value());
    weyl::Coord c = cx.annotateCoords();
    EXPECT_TRUE(cx.coords.has_value());
    EXPECT_TRUE(c.closeTo(weyl::coordCNOT()));
}

TEST(Circuit, MetricsAndDepth)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(2);
    EXPECT_EQ(c.gateCount(), 4);
    EXPECT_EQ(c.twoQubitGateCount(), 2);
    EXPECT_EQ(c.depth(), 4); // h, cx, cx, h chain through qubit flow
}

TEST(Circuit, RejectsBadOperands)
{
    Circuit c(2);
    auto message = [](auto &&append) {
        try {
            append();
        } catch (const CircuitError &e) {
            return std::string(e.what());
        }
        return std::string("no CircuitError");
    };
    EXPECT_THROW(c.cx(0, 5), CircuitError);
    EXPECT_EQ(message([&] { c.cx(0, 5); }),
              "gate cx operand 5 out of range (n=2)");
    EXPECT_EQ(message([&] { c.h(-1); }),
              "gate h operand -1 out of range (n=2)");
    EXPECT_THROW(c.append(makeGate2(GateKind::CX, 1, 1)), CircuitError);
    EXPECT_EQ(message([&] { c.append(makeGate2(GateKind::CX, 1, 1)); }),
              "repeated operand 1 in cx");
    EXPECT_TRUE(c.empty()); // a rejected gate is not appended
}

TEST(Sim, BellState)
{
    StateVector sv(2);
    sv.applyGate(makeGate1(GateKind::H, 0));
    sv.applyGate(makeGate2(GateKind::CX, 0, 1));
    // |00> + |11> (qubit 0 is the control, bit 0 of the index).
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[3]), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, 1e-12);
}

TEST(Sim, TwoQubitOperandOrder)
{
    // CX with control = operand 0: |q1 q0> = |01> (q0=1) must flip q1.
    StateVector sv(2);
    sv.applyGate(makeGate1(GateKind::X, 0));
    sv.applyGate(makeGate2(GateKind::CX, 0, 1));
    // Expect |11> = index 3.
    EXPECT_NEAR(std::abs(sv.amplitudes()[3]), 1.0, 1e-12);
}

TEST(Sim, SwapGateMovesAmplitudes)
{
    Rng rng(5);
    StateVector sv(3);
    sv.randomize(rng);
    StateVector orig = sv;
    sv.applyGate(makeGate2(GateKind::SWAP, 0, 2));
    StateVector expect = orig.permuted({2, 1, 0});
    EXPECT_NEAR(std::abs(sv.inner(expect)), 1.0, 1e-12);
}

TEST(Sim, CcxAndCswap)
{
    // CCX: |110> (q0=1,q1=1,q2=0) -> |111>.
    StateVector sv(3);
    sv.applyGate(makeGate1(GateKind::X, 0));
    sv.applyGate(makeGate1(GateKind::X, 1));
    Gate ccx;
    ccx.kind = GateKind::CCX;
    ccx.qubits = {0, 1, 2};
    sv.applyGate(ccx);
    EXPECT_NEAR(std::abs(sv.amplitudes()[7]), 1.0, 1e-12);

    // CSWAP with control off leaves the state alone.
    StateVector sw(3);
    sw.applyGate(makeGate1(GateKind::X, 1));
    Gate cs;
    cs.kind = GateKind::CSWAP;
    cs.qubits = {0, 1, 2};
    sw.applyGate(cs);
    EXPECT_NEAR(std::abs(sw.amplitudes()[2]), 1.0, 1e-12);
}

TEST(Sim, PermutedRoundTrip)
{
    Rng rng(17);
    StateVector sv(4);
    sv.randomize(rng);
    std::vector<int> perm = {2, 0, 3, 1};
    std::vector<int> inv(4);
    for (int i = 0; i < 4; ++i)
        inv[size_t(perm[size_t(i)])] = i;
    StateVector back = sv.permuted(perm).permuted(inv);
    EXPECT_NEAR(std::abs(sv.inner(back)), 1.0, 1e-12);
}

namespace {

/** Unitary of a small circuit via simulation of basis states. */
std::vector<std::vector<Complex>>
circuitUnitary(const Circuit &c)
{
    size_t dim = size_t(1) << c.numQubits();
    std::vector<std::vector<Complex>> u(dim, std::vector<Complex>(dim));
    for (size_t col = 0; col < dim; ++col) {
        StateVector sv(c.numQubits());
        sv.amplitudes().assign(dim, Complex(0));
        sv.amplitudes()[col] = Complex(1);
        sv.applyCircuit(c);
        for (size_t row = 0; row < dim; ++row)
            u[row][col] = sv.amplitudes()[row];
    }
    return u;
}

double
unitaryDistance(const std::vector<std::vector<Complex>> &a,
                const std::vector<std::vector<Complex>> &b)
{
    // Phase-align then compare.
    Complex tr(0);
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < a.size(); ++j)
            tr += std::conj(a[i][j]) * b[i][j];
    Complex phase = std::abs(tr) > 1e-12 ? tr / std::abs(tr) : Complex(1);
    double worst = 0;
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < a.size(); ++j)
            worst = std::max(worst,
                             std::abs(a[i][j] * phase - b[i][j]));
    return worst;
}

} // namespace

TEST(Consolidate, PreservesUnitary)
{
    Rng rng(33);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(3);
        // Random mix of 1Q and 2Q gates.
        for (int g = 0; g < 14; ++g) {
            switch (rng.index(5)) {
              case 0: c.h(int(rng.index(3))); break;
              case 1: c.rz(rng.uniform(0, 3), int(rng.index(3))); break;
              case 2: c.cx(0, 1); break;
              case 3: c.cx(1, 2); break;
              default: c.cp(rng.uniform(0, 3), 0, 2); break;
            }
        }
        Circuit merged = consolidateBlocks(c);
        EXPECT_LE(merged.twoQubitGateCount(), c.twoQubitGateCount());
        EXPECT_LT(unitaryDistance(circuitUnitary(c),
                                  circuitUnitary(merged)),
                  1e-9);
    }
}

TEST(Consolidate, MergesSamePairRuns)
{
    Circuit c(2);
    c.cx(0, 1);
    c.h(0);
    c.cx(1, 0); // reversed operand order still merges
    c.cx(0, 1);
    Circuit merged = consolidateBlocks(c);
    EXPECT_EQ(merged.twoQubitGateCount(), 1);
    EXPECT_EQ(merged.gates()[0].kind, GateKind::Unitary2Q);
    EXPECT_TRUE(merged.gates()[0].coords.has_value());
}

TEST(Consolidate, CoordinateCacheHits)
{
    clearCoordinateCache();
    Circuit c(4);
    // The same CX block appears on many pairs: the interior unitary is
    // identical, so the cache should hit after the first.
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            c.cx(j, 3);
    ConsolidateStats stats;
    consolidateBlocks(c, ConsolidateOptions{}, &stats);
    EXPECT_GT(stats.coordCacheHits, 0u);
}

TEST(Consolidate, BarrierSealsBlocks)
{
    Circuit c(2);
    c.cx(0, 1);
    c.append(makeBarrier({0, 1}));
    c.cx(0, 1);
    Circuit merged = consolidateBlocks(c);
    EXPECT_EQ(merged.twoQubitGateCount(), 2);
}

TEST(Qasm, EmitsLoadableText)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cp(0.5, 1, 2);
    c.swap(0, 2);
    std::string q = toQasm(c);
    EXPECT_NE(q.find("OPENQASM 2.0"), std::string::npos);
    EXPECT_NE(q.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(q.find("cp(0.5) q[1],q[2];"), std::string::npos);
    EXPECT_NE(q.find("swap q[0],q[2];"), std::string::npos);
}

TEST(Qasm, UnitaryBlocksViaKak)
{
    Rng rng(9);
    Circuit c(2);
    c.unitary(0, 1, linalg::randomSU4(rng));
    std::string q = toQasm(c);
    // KAK emission uses u3 + rxx/rzz primitives.
    EXPECT_NE(q.find("rxx"), std::string::npos);
    EXPECT_NE(q.find("u3"), std::string::npos);
}
