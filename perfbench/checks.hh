/**
 * @file
 * Output checks the benchmark runs on every op. None of them trusts the
 * router: each re-derives its verdict from the emitted circuit, the
 * coupling map, or the lowering statistics.
 *
 * Every check returns an empty string on success and a one-line reason
 * on failure. Tally turns a failed check -- or an exception thrown by
 * the op itself -- into a counted failure, so one bad op never aborts a
 * run.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

namespace perfbench {

using mirage::circuit::Circuit;
using mirage::mirage_pass::TranspileResult;
using mirage::topology::CouplingMap;

/** Worst per-block infidelity the lowering tests accept. */
inline constexpr double kInfidelityTolerance = 1e-6;

/** Every gate on two or more qubits must sit on one coupling edge. */
std::string checkEdges(const Circuit &routed, const CouplingMap &coupling);

/** A lowered circuit holds only RootISWAP(root) and one-qubit gates. */
std::string checkBasisOnly(const Circuit &lowered, int root_degree);

/**
 * All checks on one lowered transpile result: routed gates on edges,
 * lowered gates in the basis, measured total pulses equal to the
 * polytope estimate, and the worst infidelity under tolerance.
 */
std::string checkLoweredResult(const TranspileResult &result,
                               const CouplingMap &coupling,
                               int root_degree);

/**
 * The replay-fidelity check: the replayed routed and lowered circuits
 * must serialize (toQasm) byte-identically to the reference transpile()
 * result. Any difference means the replay timed a different program.
 */
std::string compareOutputs(const TranspileResult &replayed,
                           const TranspileResult &reference);

/** Counts attempted and failed ops, keeping the first few reasons. */
class Tally
{
  public:
    /**
     * Run one op: the callable returns "" on success or a reason; a
     * thrown exception is a failure too. Returns true on success.
     */
    bool run(const std::function<std::string()> &op);
    /** Record an op whose outcome is already known. */
    void record(const std::string &reason);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &reasons() const { return reasons_; }
    /** Fold another tally in (per-thread tallies at the end of a run). */
    void merge(const Tally &other);

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
