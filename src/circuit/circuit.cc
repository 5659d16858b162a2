/**
 * @file
 * Circuit container implementation: gate list management, builder
 * helpers for the common gate set, and structural metrics (depth,
 * two-qubit counts).
 */

#include "circuit/circuit.hh"

#include <algorithm>

namespace mirage::circuit {

namespace {

/**
 * Throw the CircuitError for operand `q` of `g` on `n` qubits: out of
 * range, or else repeated. Out of line and cold, so append()'s per-gate
 * check costs what an assert does and the message is built only here.
 */
[[noreturn]] __attribute__((noinline, cold)) void
rejectOperand(const Gate &g, int q, int n)
{
    if (q >= 0 && q < n)
        throw CircuitError("repeated operand " + std::to_string(q) +
                           " in " + g.name());
    throw CircuitError("gate " + g.name() + " operand " + std::to_string(q) +
                       " out of range (n=" + std::to_string(n) + ")");
}

} // namespace

void
Circuit::append(Gate g)
{
    for (int q : g.qubits) {
        if (q < 0 || q >= numQubits_)
            rejectOperand(g, q, numQubits_);
    }
    if (g.numQubits() >= 2) {
        for (size_t i = 0; i < g.qubits.size(); ++i)
            for (size_t j = i + 1; j < g.qubits.size(); ++j)
                if (g.qubits[i] == g.qubits[j])
                    rejectOperand(g, g.qubits[i], numQubits_);
    }
    gates_.push_back(std::move(g));
}

int
Circuit::twoQubitGateCount() const
{
    int n = 0;
    for (const auto &g : gates_) {
        if (!g.isBarrier() && g.numQubits() >= 2)
            ++n;
    }
    return n;
}

int
Circuit::gateCount() const
{
    int n = 0;
    for (const auto &g : gates_) {
        if (!g.isBarrier())
            ++n;
    }
    return n;
}

int
Circuit::depth() const
{
    std::vector<int> level(size_t(numQubits_), 0);
    int depth = 0;
    for (const auto &g : gates_) {
        if (g.isBarrier())
            continue;
        int start = 0;
        for (int q : g.qubits)
            start = std::max(start, level[size_t(q)]);
        for (int q : g.qubits)
            level[size_t(q)] = start + 1;
        depth = std::max(depth, start + 1);
    }
    return depth;
}

int
Circuit::countKind(GateKind kind) const
{
    int n = 0;
    for (const auto &g : gates_) {
        if (g.kind == kind)
            ++n;
    }
    return n;
}

bool
Circuit::bitIdentical(const Circuit &a, const Circuit &b)
{
    if (a.numQubits() != b.numQubits() || a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        if (ga.kind != gb.kind || ga.qubits != gb.qubits ||
            ga.params != gb.params || ga.mirrored != gb.mirrored)
            return false;
        if (ga.mat2.has_value() != gb.mat2.has_value() ||
            (ga.mat2.has_value() && ga.mat2->a != gb.mat2->a))
            return false;
        if (ga.mat4.has_value() != gb.mat4.has_value() ||
            (ga.mat4.has_value() && ga.mat4->a != gb.mat4->a))
            return false;
        if (ga.coords.has_value() != gb.coords.has_value())
            return false;
        if (ga.coords.has_value() &&
            (ga.coords->a != gb.coords->a || ga.coords->b != gb.coords->b ||
             ga.coords->c != gb.coords->c))
            return false;
    }
    return true;
}

} // namespace mirage::circuit
