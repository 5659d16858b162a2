/**
 * @file
 * Output checks: edge membership, basis membership, pulse agreement,
 * infidelity, replay fidelity, and the failure tally.
 */

#include "checks.hh"

#include <exception>

#include "circuit/qasm.hh"

namespace perfbench {

using mirage::circuit::Gate;
using mirage::circuit::GateKind;

namespace {

constexpr size_t kMaxReasons = 8;

std::string
gateAt(size_t index, const Gate &g)
{
    std::string s = "gate ";
    s += std::to_string(index);
    s += ' ';
    s += g.name();
    for (size_t i = 0; i < g.qubits.size(); ++i) {
        s += i ? ',' : '(';
        s += std::to_string(g.qubits[i]);
    }
    s += ')';
    return s;
}

} // namespace

std::string
checkEdges(const Circuit &routed, const CouplingMap &coupling)
{
    const auto &gates = routed.gates();
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.isBarrier() || g.numQubits() < 2)
            continue;
        if (g.numQubits() > 2)
            return gateAt(i, g) + " acts on more than two qubits";
        const int a = g.qubits[0], b = g.qubits[1];
        if (a < 0 || b < 0 || a >= coupling.numQubits() ||
            b >= coupling.numQubits() || !coupling.isEdge(a, b))
            return gateAt(i, g) + " is not on a coupling edge";
    }
    return "";
}

std::string
checkBasisOnly(const Circuit &lowered, int root_degree)
{
    const auto &gates = lowered.gates();
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.isOneQubit())
            continue;
        if (g.kind == GateKind::RootISWAP && g.params.size() == 1 &&
            g.params[0] == double(root_degree))
            continue;
        return gateAt(i, g) + " is outside the RootISWAP + 1Q basis";
    }
    return "";
}

std::string
checkLoweredResult(const TranspileResult &result,
                   const CouplingMap &coupling, int root_degree)
{
    if (!result.loweredToBasis)
        return "result was not lowered";
    if (std::string why = checkEdges(result.routed, coupling); !why.empty())
        return "routed " + why;
    if (std::string why = checkEdges(result.lowered, coupling); !why.empty())
        return "lowered " + why;
    if (std::string why = checkBasisOnly(result.lowered, root_degree);
        !why.empty())
        return why;
    // Pulse counts must agree; the pulse-critical path of the lowered
    // circuit may legitimately differ from the block-level estimate.
    const double est = result.metrics.totalPulses;
    const double meas = result.loweredMetrics.totalPulses;
    if (meas != est || meas != result.translateStats.totalPulses)
        return "measured pulses " + std::to_string(meas) +
               " differ from the estimate " + std::to_string(est);
    if (!(result.translateStats.worstInfidelity < kInfidelityTolerance))
        return "worst infidelity " +
               std::to_string(result.translateStats.worstInfidelity) +
               " is not under the tolerance";
    return "";
}

std::string
compareOutputs(const TranspileResult &replayed,
               const TranspileResult &reference)
{
    using mirage::circuit::toQasm;
    if (toQasm(replayed.routed) != toQasm(reference.routed))
        return "replayed routed circuit differs from transpile()";
    if (replayed.loweredToBasis != reference.loweredToBasis)
        return "replay and transpile() disagree on lowering";
    if (reference.loweredToBasis &&
        toQasm(replayed.lowered) != toQasm(reference.lowered))
        return "replayed lowered circuit differs from transpile()";
    return "";
}

bool
Tally::run(const std::function<std::string()> &op)
{
    std::string reason;
    try {
        reason = op();
    } catch (const std::exception &e) {
        reason = std::string("threw: ") + e.what();
    } catch (...) {
        reason = "threw a non-standard exception";
    }
    record(reason);
    return reason.empty();
}

void
Tally::record(const std::string &reason)
{
    ++attempted_;
    if (reason.empty())
        return;
    ++failed_;
    if (reasons_.size() < kMaxReasons)
        reasons_.push_back(reason);
}

void
Tally::merge(const Tally &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &r : other.reasons_)
        if (reasons_.size() < kMaxReasons)
            reasons_.push_back(r);
}

} // namespace perfbench
