/**
 * @file
 * DAG view of a circuit: wire-dependency edge construction and the
 * unresolved-predecessor bookkeeping the SABRE/MIRAGE front layer uses.
 */

#include "circuit/dag.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mirage::circuit {

DagCircuit::DagCircuit(const Circuit &circuit)
    : numQubits_(circuit.numQubits())
{
    std::vector<int> last_on_wire(size_t(numQubits_), -1);
    nodes_.reserve(circuit.size());

    for (const auto &g : circuit.gates()) {
        if (g.isBarrier())
            continue;
        DagNode node;
        node.gate = g;
        node.id = int(nodes_.size());
        for (int q : g.qubits) {
            int prev = last_on_wire[size_t(q)];
            if (prev >= 0) {
                // Avoid duplicate edges when both wires of a 2Q gate come
                // from the same predecessor.
                auto &p = node.preds;
                if (std::find(p.begin(), p.end(), prev) == p.end()) {
                    p.push_back(prev);
                    nodes_[size_t(prev)].succs.push_back(node.id);
                }
            }
            last_on_wire[size_t(q)] = node.id;
        }
        if (node.preds.empty())
            roots_.push_back(node.id);
        nodes_.push_back(std::move(node));
    }
}

int
DagCircuit::twoQubitDepth() const
{
    std::vector<int> longest(nodes_.size(), 0);
    int best = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        int w = nodes_[i].gate.numQubits() >= 2 ? 1 : 0;
        int in = 0;
        for (int p : nodes_[i].preds)
            in = std::max(in, longest[size_t(p)]);
        longest[i] = in + w;
        best = std::max(best, longest[i]);
    }
    return best;
}

} // namespace mirage::circuit
