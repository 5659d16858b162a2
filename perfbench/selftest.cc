/**
 * @file
 * Self-tests of the benchmark's own checks (run by
 * `python3 perfbench/run.py --selftest`, which also tests the Python
 * statistics). Exit code 0 when every test passes.
 */

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_circuits/generators.hh"
#include "checks.hh"
#include "decomp/equivalence.hh"
#include "replay.hh"

namespace {

using namespace perfbench;
namespace mp = mirage::mirage_pass;
using mirage::circuit::Circuit;
using mirage::circuit::Gate;
using mirage::circuit::GateKind;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("  FAILED: %s\n", what.c_str());
    }
}

/**
 * The routed circuit as it would look had the router forgotten the
 * SWAP at `index`: the SWAP is gone and every later gate keeps the
 * wires it had before that SWAP moved its qubits.
 */
Circuit
dropSwap(const Circuit &routed, size_t index)
{
    const Gate &swap = routed.gates()[index];
    const int a = swap.qubits[0], b = swap.qubits[1];
    Circuit out(routed.numQubits(), routed.name());
    for (size_t i = 0; i < routed.size(); ++i) {
        if (i == index)
            continue;
        Gate g = routed.gates()[i];
        if (i > index)
            for (int &q : g.qubits)
                q = q == a ? b : q == b ? a : q;
        out.append(std::move(g));
    }
    return out;
}

mp::TranspileResult
routeBaseline(const Circuit &c, const CouplingMap &m, uint64_t seed)
{
    mp::TranspileOptions o;
    o.flow = mp::Flow::SabreBaseline;
    o.tryVf2 = false;
    o.layoutTrials = 2;
    o.swapTrials = 1;
    o.seed = seed;
    return mp::transpile(c, m, o);
}

void
edgeCheckerRejectsDroppedSwap()
{
    const auto line = CouplingMap::line(6);
    const auto res = routeBaseline(mirage::bench::qft(6, false), line, 7);
    expect(checkEdges(res.routed, line).empty(), "routed qft6 is on edges");
    int swaps = 0, caught = 0;
    for (size_t i = 0; i < res.routed.size(); ++i) {
        if (res.routed.gates()[i].kind != GateKind::SWAP)
            continue;
        ++swaps;
        caught += checkEdges(dropSwap(res.routed, i), line).empty() ? 0 : 1;
    }
    expect(swaps > 0, "the baseline router inserted SWAPs");
    expect(caught > 0, "dropping a SWAP puts a gate off the coupling map");
}

void
basisCheck()
{
    Circuit lowered(2);
    lowered.riswap(2, 0, 1);
    lowered.h(0);
    expect(checkBasisOnly(lowered, 2).empty(), "RootISWAP + 1Q passes");
    lowered.cx(0, 1);
    expect(!checkBasisOnly(lowered, 2).empty(), "a CX fails the basis check");
}

void
replayMatchesTranspileAndMismatchIsDetected()
{
    const auto grid = CouplingMap::grid(2, 3);
    const Circuit c = mirage::bench::qft(5);
    mp::TranspileOptions o;
    o.tryVf2 = false;
    o.layoutTrials = 2;
    o.swapTrials = 2;
    o.lowerToBasis = true;
    mirage::decomp::EquivalenceLibrary lib(2);
    o.equivalenceLibrary = &lib;
    Trace trace;
    const ReplayRecord rec = replayTranspile(c, grid, o, trace, 0);
    const auto ref = mp::transpile(c, grid, o);
    expect(compareOutputs(rec.result, ref).empty(),
           "replay is byte-identical to transpile()");
    expect(rec.stageSumMs() <= trace.durationMs(rec.rootSpan),
           "stage spans nest inside the op span");
    expect(trace.selfMs(rec.rootSpan) >= 0, "root self time is non-negative");

    mp::TranspileOptions other = o;
    other.seed = o.seed + 1;
    other.fixedAggression = 0;
    const auto drifted = mp::transpile(c, grid, other);
    expect(!compareOutputs(rec.result, drifted).empty(),
           "a replay of a different program is detected");
    mp::TranspileResult unlowered = ref;
    unlowered.loweredToBasis = false;
    expect(!compareOutputs(rec.result, unlowered).empty(),
           "a lowering mismatch is detected");
}

void
failuresAreCountedNotThrown()
{
    Tally t;
    expect(t.run([] { return std::string(); }), "a passing op succeeds");
    expect(!t.run([]() -> std::string { throw std::runtime_error("boom"); }),
           "a throwing op is a failure");
    expect(!t.run([] { return std::string("bad output"); }),
           "a failed check is a failure");
    t.record("");
    expect(t.attempted() == 4 && t.failed() == 2,
           "four attempted, two failed");
    expect(t.reasons().size() == 2 &&
               t.reasons()[0].find("boom") != std::string::npos,
           "the exception message is kept as the reason");
    Tally other;
    other.record("late failure");
    t.merge(other);
    expect(t.attempted() == 5 && t.failed() == 3, "tallies merge");
}

} // namespace

int
main()
{
    const std::vector<std::pair<const char *, void (*)()>> tests = {
        {"edge checker rejects a dropped SWAP", edgeCheckerRejectsDroppedSwap},
        {"basis check", basisCheck},
        {"replay fidelity and mismatch detection",
         replayMatchesTranspileAndMismatchIsDetected},
        {"failures are counted, not thrown", failuresAreCountedNotThrown},
    };
    for (const auto &[name, fn] : tests) {
        const int before = failures;
        fn();
        std::printf("%s %s\n", failures == before ? "ok  " : "FAIL", name);
    }
    return failures == 0 ? 0 : 1;
}
