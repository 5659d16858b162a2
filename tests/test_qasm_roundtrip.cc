/**
 * @file
 * QASM round-trip property test: every bench_circuits generator family
 * dumps to OpenQASM 2.0 and re-parses to a gate-for-gate identical
 * circuit (kind, operands, parameters). Standard-gate circuits must
 * survive exactly; the test also covers parser details (comments,
 * whitespace, pi expressions, multiple registers) and rejection of
 * malformed input, and that a Unitary2Q block repeated within one
 * export emits exactly what it emits alone.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_circuits/generators.hh"
#include "circuit/qasm.hh"
#include "circuit/sim.hh"
#include "common/rng.hh"
#include "linalg/random_unitary.hh"
#include "weyl/catalog.hh"

using namespace mirage;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

/**
 * Gate-for-gate comparison. Parameters are compared to a RELATIVE
 * 1e-9: the exporter prints %.12g (12 significant digits), so the
 * round-trip error scales with magnitude -- ~1e-12 for O(1) angles,
 * ~1e-8 for the multi-thousand-radian phases of the ae family.
 */
void
expectRoundTrips(const Circuit &original, const char *label)
{
    std::string text = circuit::toQasm(original);
    Circuit parsed = circuit::fromQasm(text);

    ASSERT_EQ(parsed.numQubits(), original.numQubits()) << label;
    ASSERT_EQ(parsed.size(), original.size()) << label;
    for (size_t i = 0; i < original.size(); ++i) {
        const Gate &want = original.gates()[i];
        const Gate &got = parsed.gates()[i];
        EXPECT_EQ(int(got.kind), int(want.kind))
            << label << " gate " << i << " (" << want.name() << ")";
        EXPECT_EQ(got.qubits, want.qubits) << label << " gate " << i;
        ASSERT_EQ(got.params.size(), want.params.size())
            << label << " gate " << i;
        for (size_t p = 0; p < want.params.size(); ++p) {
            double tol = 1e-9 * std::max(1.0, std::abs(want.params[p]));
            EXPECT_NEAR(got.params[p], want.params[p], tol)
                << label << " gate " << i << " param " << p;
        }
    }
}

} // namespace

TEST(QasmRoundTrip, AllPaperBenchmarkFamilies)
{
    // The full Table III suite: every generator family the repository
    // ships. All of them use standard gates only, so the round trip is
    // exact gate-for-gate.
    for (const auto &b : bench::paperBenchmarks()) {
        auto circ = b.make();
        expectRoundTrips(circ, b.name.c_str());
    }
}

TEST(QasmRoundTrip, TwoLocalAnsatz)
{
    expectRoundTrips(bench::twoLocalFull(5, 2, 13), "twolocal");
}

TEST(QasmRoundTrip, EveryStandardGateKind)
{
    Circuit c(3, "allgates");
    c.h(0);
    c.x(1);
    c.y(2);
    c.z(0);
    c.s(1);
    c.sdg(2);
    c.t(0);
    c.tdg(1);
    c.sx(2);
    c.rx(0.25, 0);
    c.ry(-1.5, 1);
    c.rz(2.75, 2);
    c.u3(0.1, -0.2, 0.3, 0);
    c.cx(0, 1);
    c.cz(1, 2);
    c.cp(0.7, 0, 2);
    c.crx(-0.4, 1, 0);
    c.cry(0.9, 2, 1);
    c.crz(1.1, 0, 2);
    c.swap(0, 2);
    c.iswap(1, 2);
    c.rxx(0.33, 0, 1);
    c.rzz(-0.66, 1, 2);
    c.ccx(0, 1, 2);
    c.cswap(2, 0, 1);
    expectRoundTrips(c, "allgates");
}

/**
 * Property test: random circuits over the full standard gate set must
 * round-trip gate-for-gate across 100 seeds. Unlike the fixed circuit
 * above, this explores random operand orders, repeated gates, adjacent
 * duplicates, and random angles (including negative and multi-pi
 * values) -- the inputs a hand-written example never covers.
 */
TEST(QasmRoundTrip, RandomCircuitPropertyAcrossSeeds)
{
    for (uint64_t seed = 0; seed < 100; ++seed) {
        Rng rng(deriveSeed(0x9A5A, 0x77, seed));
        const int n = 2 + int(rng.index(5)); // 2..6 qubits
        Circuit c(n, "prop");
        const int gates = 8 + int(rng.index(25));
        for (int i = 0; i < gates; ++i) {
            const int q0 = int(rng.index(uint64_t(n)));
            int q1 = int(rng.index(uint64_t(n) - 1));
            if (q1 >= q0)
                ++q1;
            const double th = (rng.uniform() - 0.5) * 8.0 * M_PI;
            switch (rng.index(25)) {
              case 0: c.h(q0); break;
              case 1: c.x(q0); break;
              case 2: c.y(q0); break;
              case 3: c.z(q0); break;
              case 4: c.s(q0); break;
              case 5: c.sdg(q0); break;
              case 6: c.t(q0); break;
              case 7: c.tdg(q0); break;
              case 8: c.sx(q0); break;
              case 9: c.rx(th, q0); break;
              case 10: c.ry(th, q0); break;
              case 11: c.rz(th, q0); break;
              case 12:
                c.u3(th, rng.uniform() * 2, rng.uniform() * -3, q0);
                break;
              case 13: c.cx(q0, q1); break;
              case 14: c.cz(q0, q1); break;
              case 15: c.cp(th, q0, q1); break;
              case 16: c.crx(th, q0, q1); break;
              case 17: c.cry(th, q0, q1); break;
              case 18: c.crz(th, q0, q1); break;
              case 19: c.swap(q0, q1); break;
              case 20: c.iswap(q0, q1); break;
              case 21: c.rxx(th, q0, q1); break;
              case 22: c.rzz(th, q0, q1); break;
              default: {
                if (n < 3) {
                    c.cx(q0, q1);
                    break;
                }
                int q2 = int(rng.index(uint64_t(n)));
                while (q2 == q0 || q2 == q1)
                    q2 = (q2 + 1) % n;
                if (rng.uniform() < 0.5)
                    c.ccx(q0, q1, q2);
                else
                    c.cswap(q0, q1, q2);
                break;
              }
            }
        }
        expectRoundTrips(c, ("seed " + std::to_string(seed)).c_str());
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(QasmRoundTrip, ParsedCircuitIsFunctionallyIdentical)
{
    // Beyond the syntactic gate-for-gate check: the re-parsed circuit
    // must implement the same unitary (guards against, e.g., silently
    // reordered operands).
    auto circ = bench::qft(5, true);
    Circuit parsed = circuit::fromQasm(circuit::toQasm(circ));
    Rng rng(5);
    circuit::StateVector a(5), b(5);
    a.randomize(rng);
    b = a;
    a.applyCircuit(circ);
    b.applyCircuit(parsed);
    EXPECT_NEAR(std::abs(a.inner(b)), 1.0, 1e-9);
}

TEST(QasmParser, HandlesCommentsWhitespaceAndExpressions)
{
    const std::string text = R"(// leading comment
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];   // classical bits are skipped
rx(-pi/2) q[0];
rz(pi) q[1];
ry(2*pi/4) q[0];
cp((pi)) q[0] , q[1];
measure q[0] -> c[0];
)";
    Circuit c = circuit::fromQasm(text);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(int(c.gates()[0].kind), int(GateKind::RX));
    EXPECT_NEAR(c.gates()[0].params[0], -linalg::kPi / 2, 1e-12);
    EXPECT_NEAR(c.gates()[1].params[0], linalg::kPi, 1e-12);
    EXPECT_NEAR(c.gates()[2].params[0], linalg::kPi / 2, 1e-12);
    EXPECT_EQ(c.gates()[3].qubits, (std::vector<int>{0, 1}));
}

TEST(QasmParser, ConcatenatesMultipleRegisters)
{
    const std::string text =
        "OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a[1],b[2];\n";
    Circuit c = circuit::fromQasm(text);
    EXPECT_EQ(c.numQubits(), 5);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gates()[0].qubits, (std::vector<int>{1, 4}));
}

TEST(QasmParser, ConsolidatedBlocksLowerToParsableText)
{
    // Unitary2Q blocks are exported via their KAK parameters; the text
    // must re-parse (as u3/rxx/rzz/rx primitives, not blocks) and stay
    // functionally equivalent.
    Circuit c(2, "blocks");
    Rng rng(77);
    c.unitary(0, 1, linalg::randomSU4(rng));
    Circuit parsed = circuit::fromQasm(circuit::toQasm(c));
    EXPECT_EQ(parsed.numQubits(), 2);
    EXPECT_GT(parsed.size(), 1u);

    circuit::StateVector x(2), y(2);
    Rng state_rng(3);
    x.randomize(state_rng);
    y = x;
    x.applyCircuit(c);
    y.applyCircuit(parsed);
    EXPECT_NEAR(std::abs(x.inner(y)), 1.0, 1e-7);
}

namespace {

/** toQasm's text for a circuit, minus the header every dump starts with. */
std::string
qasmBody(const Circuit &c)
{
    const std::string header = circuit::toQasm(Circuit(c.numQubits()));
    std::string text = circuit::toQasm(c);
    EXPECT_EQ(text.compare(0, header.size(), header), 0);
    return text.substr(header.size());
}

} // namespace

TEST(QasmExport, RepeatedBlocksEmitWhatALoneBlockEmits)
{
    // toQasm decomposes each distinct Unitary2Q matrix once per call and
    // reuses its text for later copies. Every block must still emit
    // exactly what a one-gate circuit holding it alone emits: one
    // matrix on three operand pairs (one reversed), its SWAP.U mirror
    // on the first pair, and a controlled phase next to a copy whose
    // one phase entry is 1e-6 rad off (both unitary), which must not
    // share text.
    Rng rng(2024);
    const linalg::Mat4 u = linalg::randomSU4(rng);
    const linalg::Mat4 mirror = weyl::gateSWAP() * u;
    const linalg::Mat4 cp =
        linalg::Mat4::diag(1.0, 1.0, 1.0, std::polar(1.0, 0.7));
    linalg::Mat4 nearCp = cp;
    nearCp(3, 3) = std::polar(1.0, 0.7 + 1e-6);
    ASSERT_NEAR(std::abs(nearCp(3, 3) - cp(3, 3)), 1e-6, 1e-12);

    struct Block
    {
        int a, b;
        linalg::Mat4 m;
    };
    const std::vector<Block> blocks = {
        {0, 1, u},  {2, 3, u},      {0, 1, mirror}, {3, 0, u},
        {0, 2, cp}, {0, 2, nearCp}, {1, 3, cp},
    };
    Circuit all(4, "repeated");
    std::string expected;
    std::vector<std::string> alone;
    for (const Block &b : blocks) {
        all.unitary(b.a, b.b, b.m);
        Circuit one(4);
        one.unitary(b.a, b.b, b.m);
        alone.push_back(qasmBody(one));
        expected += alone.back();
    }
    EXPECT_EQ(qasmBody(all), expected);
    EXPECT_NE(alone[4], alone[5]) << "near-equal matrices share text";
    EXPECT_NE(alone[0], alone[2]) << "a mirror shares its original's text";
}

namespace {

/** Parse and return the diagnostic the malformed input produces. */
circuit::QasmError
diagnose(const std::string &text)
{
    try {
        circuit::fromQasm(text);
    } catch (const circuit::QasmError &e) {
        return e;
    }
    ADD_FAILURE() << "expected QasmError for: " << text;
    return circuit::QasmError(0, 0, "no error raised");
}

} // namespace

TEST(QasmParser, RejectsMalformedInput)
{
    EXPECT_THROW(circuit::fromQasm("qreg q[2];"), circuit::QasmError);
    EXPECT_THROW(
        circuit::fromQasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];"),
        circuit::QasmError);
    EXPECT_THROW(circuit::fromQasm("OPENQASM 2.0;\nqreg q[1];\nh r[0];"),
                 circuit::QasmError);
    // Over-indexing must fail at parse time, not silently alias into a
    // later register's wires.
    EXPECT_THROW(circuit::fromQasm(
                     "OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\nx a[3];"),
                 circuit::QasmError);
    // Register sizes whose total passes INT_MAX are refused at the size
    // that overflows instead of wrapping the qubit count negative.
    auto e = diagnose(
        "OPENQASM 2.0;\nqreg a[2147483647];\nqreg b[2];\nh b[0];");
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 8);
    EXPECT_NE(e.message().find("qubit total"), std::string::npos)
        << e.message();
    EXPECT_NO_THROW(circuit::fromQasm(
        "OPENQASM 2.0;\nqreg a[2147483645];\nqreg b[2];\nh b[0];"));
}

TEST(QasmParser, DiagnosticsCarryLineAndColumn)
{
    // Header: the bad keyword starts at 1:1.
    auto e = diagnose("qreg q[2];");
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(e.message().find("OPENQASM"), std::string::npos);

    // Unsupported statement: points at the statement word.
    e = diagnose("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];");
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(e.message().find("frobnicate"), std::string::npos);

    // Unknown register on line 3 (named in the message).
    e = diagnose("OPENQASM 2.0;\nqreg q[1];\nh r[0];");
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(e.message().find("unknown register 'r'"),
              std::string::npos);

    // Out-of-range index: points at the offending index token.
    e = diagnose("OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\nx a[3];");
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.column(), 5);
    EXPECT_NE(e.message().find("out of range"), std::string::npos);

    // Wrong parameter count: points at the gate word.
    e = diagnose("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\nrx q[0];");
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(e.message().find("expects 1 params"), std::string::npos);

    // Oversized literal: reported as a diagnostic, not an exit.
    e = diagnose("OPENQASM 2.0;\nqreg q[99999999999999999999];");
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(e.message().find("out of range"), std::string::npos);

    // Comments and blank lines must not desynchronize the position.
    e = diagnose(
        "OPENQASM 2.0;\n// comment line\n\nqreg q[2];\nbadgate q[0];");
    EXPECT_EQ(e.line(), 5);
    EXPECT_EQ(e.column(), 1);

    // what() is the scriptable "line:col: message" form.
    EXPECT_NE(std::string(e.what()).find("5:1: "), std::string::npos);
}

TEST(QasmParser, RejectsRepeatedOperandsAtTheGate)
{
    // Two-qubit gate on one wire: positioned at the gate word.
    auto e = diagnose("OPENQASM 2.0;\nqreg q[2];\nh q[1];\n  cx q[0],q[0];");
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.column(), 3);
    EXPECT_NE(e.message().find("repeats operand wire 0"), std::string::npos)
        << e.message();

    // Three-qubit gate and barrier, including repeats across registers
    // that resolve to the same wire.
    e = diagnose("OPENQASM 2.0;\nqreg a[2];\nqreg b[1];\nccx a[0],b[0],b[0];");
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.column(), 1);
    e = diagnose("OPENQASM 2.0;\nqreg q[2];\nbarrier q,q[1];");
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(e.message().find("repeats operand wire 1"), std::string::npos)
        << e.message();

    // Distinct operands still parse.
    EXPECT_NO_THROW(
        circuit::fromQasm("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[0];"));
}

TEST(QasmParser, RejectsNonFiniteParameters)
{
    // 0/0 is NaN; 1/0 and its negation are infinite. Each is rejected at
    // the gate word with the parameter named.
    auto e = diagnose("OPENQASM 2.0;\nqreg q[1];\nrz(0/0) q[0];");
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(e.message().find("rz parameter 1 is not a finite number"),
              std::string::npos)
        << e.message();

    e = diagnose("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"
                 "u3(0.1, -1/0, 0.3) q[1];");
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(e.message().find("u3 parameter 2"), std::string::npos)
        << e.message();

    e = diagnose("OPENQASM 2.0;\nqreg q[2];\ncp(1e999) q[0],q[1];");
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(e.message().find("not a finite number"), std::string::npos);
}
