/**
 * @file
 * Directed acyclic graph view of a circuit.
 *
 * SABRE/MIRAGE routing consumes circuits through this DAG: nodes are
 * gates, edges are wire dependencies. The router tracks per-node
 * unresolved-predecessor counts to maintain its front layer.
 */

#ifndef MIRAGE_CIRCUIT_DAG_HH
#define MIRAGE_CIRCUIT_DAG_HH

#include <vector>

#include "circuit/circuit.hh"

namespace mirage::circuit {

/** A node in the circuit DAG. */
struct DagNode
{
    Gate gate;
    int id = -1;
    std::vector<int> preds;
    std::vector<int> succs;
};

/** Dependency DAG of a circuit (barriers excluded). */
class DagCircuit
{
  public:
    explicit DagCircuit(const Circuit &circuit);

    int numQubits() const { return numQubits_; }
    const std::vector<DagNode> &nodes() const { return nodes_; }
    const DagNode &node(int id) const { return nodes_[size_t(id)]; }
    size_t size() const { return nodes_.size(); }

    /** Nodes with no predecessors. */
    const std::vector<int> &roots() const { return roots_; }

    /**
     * Unit-weight longest path length counting only 2Q nodes (1Q nodes
     * have zero weight), i.e. the 2Q-depth of the circuit.
     */
    int twoQubitDepth() const;

  private:
    int numQubits_ = 0;
    std::vector<DagNode> nodes_;
    std::vector<int> roots_;
};

} // namespace mirage::circuit

#endif // MIRAGE_CIRCUIT_DAG_HH
