/**
 * @file
 * SABRE/MIRAGE routing engine: front-layer DAG walk, extended-set
 * lookahead scoring, SWAP selection, the mirror-gate intermediate layer
 * with aggression policies, and multi-trial post-selection.
 *
 * Hot-path design (the routing phase dominates transpile time, paper
 * Fig. 13): every scoring quantity is an exact integer distance sum,
 * combined into the floating-point heuristic by ONE shared expression
 * (combineHeuristic / combineOutlook). A pass records compact decisions
 * (Step: a plan node on physical wires, plain or mirrored, or a SWAP)
 * rather than Gates, and accumulates its estimated depth/cost as it
 * emits; only the post-selected winner is materialized into a Circuit.
 * The plan is one wire-order scan of the circuit: per node its gate,
 * operands, in-degree and the next node on each wire. The front-layer
 * walk reads only those arrays, and a Gate is touched again only when
 * the winner is materialized. One task
 * per layout trial refines its layout and then runs its swap trials,
 * all on one scratch arena (epoch-stamped `seen` and active-wire marks,
 * reusable front/extended/candidate buffers, per-wire touch lists) and
 * one step buffer, so the steady state allocates only when a step list
 * grows. Swap candidates are enumerated once each, with no sort, and
 * scored incrementally: the base sums are built once per stall step,
 * and a candidate SWAP (pa, pb) only adjusts the contributions of nodes
 * touching pa or pb (ScoreMode::Delta); a mirror outlook needs a single
 * hypothetical swap, so it fuses both sums into one scan. The
 * allocation-heavy full-rescan scorer survives as ScoreMode::Naive -- a
 * runtime test hook, not an #ifdef -- and produces bit-identical
 * results because both modes feed the same integer sums through the
 * same combiner. Since distances are small non-negative ints, the sums
 * are exact in any accumulation order, so Delta == Naive holds for
 * any extended-set weight; with SABRE's 0.5 (exactly representable
 * halves) the combined doubles also reproduce the historical per-term
 * accumulation bit for bit.
 */

#include "router/sabre.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "weyl/catalog.hh"
#include "weyl/coordinates.hh"

namespace mirage::router {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using layout::Layout;
using topology::CouplingMap;

namespace {

/**
 * SABRE's heuristic constants (Li, Ding, Xie, "Tackling the Qubit
 * Mapping Problem for NISQ-Era Quantum Devices", ASPLOS'19): the
 * lookahead window of |E| = 20 two-qubit gates weighted W = 0.5, and
 * the per-qubit decay bumped by delta = 0.001 per SWAP and reset every
 * 5 SWAPs.
 */
constexpr int kExtendedSetSize = 20;
constexpr double kExtendedSetWeight = 0.5;
constexpr double kDecayIncrement = 0.001;
constexpr int kDecayResetInterval = 5;

/**
 * One front/extended node's contribution pinned to a physical wire:
 * stored under both endpoints so a candidate SWAP (pa, pb) can find
 * every affected node by scanning just touch[pa] and touch[pb].
 */
struct TouchEntry
{
    int other;     ///< the node's other physical endpoint
    int dist;      ///< distance under the live layout
    bool in_front; ///< blocked-front node (else extended-set node)
};

/**
 * Exact integer distance sums over the blocked front (F) and extended
 * set (E). `fine*` are plain distance sums (the SABRE heuristic and
 * the mirror tiebreaker); `unit*` are future-SWAP sums max(0, d-1)
 * (the mirror outlook). Integers make the scores order-independent:
 * a delta-adjusted sum equals a full rescan exactly.
 */
struct ScoreSums
{
    long long fineFront = 0;
    long long fineExt = 0;
    long long unitFront = 0;
    long long unitExt = 0;
};

/**
 * SABRE heuristic H = 1/|F| sum_F d + W/|E| sum_E d. The single
 * combiner shared by both score modes: bit-identity of Delta vs Naive
 * reduces to equality of the integer sums.
 */
double
combineHeuristic(const ScoreSums &s, size_t nf, size_t ne)
{
    double h = 0;
    if (nf)
        h += double(s.fineFront) / double(nf);
    if (ne)
        h += kExtendedSetWeight * double(s.fineExt) / double(ne);
    return h;
}

/**
 * MIRAGE mirror outlook in future-SWAP units: each blocked gate needs
 * (distance - 1) SWAPs before it can execute, the lookahead window
 * contributes with the usual extended-set weight, and unlike the SABRE
 * selection heuristic this is deliberately NOT normalized by the set
 * sizes -- the mirror decision trades an absolute decomposition-cost
 * difference against an absolute number of saved SWAPs (paper Section
 * IV). The fine-grained tiebreaker (total lookahead distance, scaled
 * far below one SWAP unit) only resolves ties; without it the Equal
 * level accepts cost-neutral mirrors that merely randomize the
 * permutation, hurting CCX-heavy circuits.
 */
double
combineOutlook(const ScoreSums &s, size_t ne)
{
    double units =
        double(s.unitFront) + kExtendedSetWeight * double(s.unitExt);
    double fine = double(s.fineFront);
    if (ne)
        fine += kExtendedSetWeight * double(s.fineExt) / double(ne);
    return units + 0.02 * fine;
}

/**
 * Reusable buffers for the passes of one layout trial (the per-trial
 * scratch arena). Everything here reaches a steady-state capacity after
 * the first few steps, after which extendedSet/blockedFront/candidate
 * enumeration and scoring allocate nothing. The `seen` and `wireMark`
 * arrays are epoch-stamped instead of cleared: bumping the epoch
 * invalidates every mark in O(1).
 */
struct PassScratch
{
    std::vector<uint64_t> seen; ///< per-node visit epoch
    uint64_t epoch = 0;
    std::vector<uint64_t> wireMark; ///< per physical wire: active epoch
    uint64_t wireEpoch = 0;

    std::vector<int> ext;      ///< extended (lookahead) set
    std::vector<int> front2q;  ///< blocked front-layer 2Q nodes
    std::vector<int> walk;     ///< BFS worklist (index-driven)
    std::vector<std::pair<int, int>> candidates;
    std::vector<std::pair<int, int>> bestSwaps;

    std::vector<std::vector<TouchEntry>> touch; ///< per physical wire
    std::vector<int> touched; ///< wires with non-empty touch lists

    void
    prepare(size_t num_nodes, size_t num_phys)
    {
        if (seen.size() < num_nodes)
            seen.resize(num_nodes, 0);
        if (wireMark.size() < num_phys)
            wireMark.resize(num_phys, 0);
        if (touch.size() < num_phys)
            touch.resize(num_phys);
    }
};

/** Per-node mirror data: everything about a mirror decision that does
 * not depend on the layout, precomputed once per plan and reused by
 * every pass of the trial grid. */
struct NodeMirror
{
    weyl::Coord mirrorCoord;      ///< mirrorCoord(gate coords)
    double mirrorCost = 0;        ///< costModel->costOf(mirror coords)
    linalg::Mat4 mirroredMatrix;  ///< SWAP * U (the emitted unitary)
};

/**
 * One routing decision, on physical wires: a plan node emitted plain or
 * as its mirror, or an inserted SWAP. A pass records these instead of
 * Gates; materialize() turns the winner's list into the routed Circuit.
 */
struct Step
{
    enum class Kind : uint8_t { Node, Mirror, Swap };
    int node; ///< plan node id (-1 for a SWAP)
    int pa;   ///< first physical wire
    int pb;   ///< second physical wire (-1 for a 1Q node)
    Kind kind;
};

/**
 * Immutable routing plan for one walk direction: compact per-node
 * arrays the hot loops read instead of Gate objects, the per-node pulse
 * costs when a cost model is set, plus the mirror table when the pass
 * may mirror. A node is a non-barrier gate of the circuit, numbered in
 * walk order; the plan points into the circuit, which must outlive it.
 * Built once per routeWithTrials direction and shared read-only across
 * the whole trial grid; routePass builds a private one.
 */
struct RoutePlan
{
    std::vector<const Gate *> gate;           ///< per node: its gate
    std::vector<uint8_t> oneQ;                ///< per node: 1Q gate
    std::vector<uint8_t> twoQ;                ///< per node: 2Q gate
    std::vector<std::array<int, 2>> wires;    ///< logical operands
    /** Per node: the next node on each of its wires, deduplicated,
     * ascending and -1-padded. */
    std::vector<std::array<int, 2>> succ;
    std::vector<int> indegree;                ///< per node: predecessors
    std::vector<int> roots;                   ///< nodes with none
    /** Per 2Q node: costOf(its coords); empty without a model. The cost
     * and mirror tables are sized to the whole gate list, barriers
     * included, and indexed by node. */
    std::vector<double> cost;
    double swapCost = 0;                      ///< costOf(coordSWAP())
    std::vector<NodeMirror> mirror;           ///< empty unless mirroring
};

/**
 * The plan of one wire-order scan of `circuit` (from the back when
 * `backward`, which is SABRE's reversed walk). A node depends on the
 * last node on each of its wires; a 2Q gate whose wires share that
 * node depends on it once. Node ids ascend in scan order, so each
 * successor pair comes out ascending.
 */
RoutePlan
makePlan(const Circuit &circuit, int num_phys, bool backward,
         const monodromy::CostModel *cost_model, bool with_mirrors)
{
    MIRAGE_ASSERT(circuit.numQubits() <= num_phys,
                  "circuit does not fit the device (%d > %d)",
                  circuit.numQubits(), num_phys);
    MIRAGE_ASSERT(!with_mirrors || cost_model,
                  "mirror decisions need a cost model");
    RoutePlan plan;
    const size_t cap = circuit.size();
    plan.gate.reserve(cap);
    plan.oneQ.reserve(cap);
    plan.twoQ.reserve(cap);
    plan.wires.reserve(cap);
    plan.succ.reserve(cap);
    plan.indegree.reserve(cap);
    if (cost_model) {
        plan.cost.assign(cap, 0.0);
        plan.swapCost = cost_model->costOf(weyl::coordSWAP());
    }
    if (with_mirrors)
        plan.mirror.resize(cap);
    std::vector<int> last_on_wire(size_t(circuit.numQubits()), -1);
    const auto &gates = circuit.gates();
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[backward ? gates.size() - 1 - i : i];
        if (g.isBarrier())
            continue;
        MIRAGE_ASSERT(g.isOneQubit() || g.isTwoQubit(),
                      "router requires 1Q/2Q gates (unroll 3Q first)");
        const int id = int(plan.gate.size());
        plan.gate.push_back(&g);
        plan.oneQ.push_back(g.isOneQubit());
        plan.twoQ.push_back(g.isTwoQubit());
        plan.wires.push_back({g.qubits[0], g.isTwoQubit() ? g.qubits[1] : 0});
        plan.succ.push_back({-1, -1});
        int preds = 0;
        for (int q : g.qubits) {
            const int prev = std::exchange(last_on_wire[size_t(q)], id);
            if (prev < 0)
                continue;
            auto &next = plan.succ[size_t(prev)];
            if (next[0] == id || next[1] == id)
                continue;
            next[next[0] < 0 ? 0 : 1] = id;
            ++preds;
        }
        plan.indegree.push_back(preds);
        if (preds == 0)
            plan.roots.push_back(id);
        if (!cost_model || !g.isTwoQubit())
            continue;
        // The same coordinates materialize() annotates on the emitted
        // gate, so this is exactly the cost computeMetrics charges it.
        const weyl::Coord c = g.weylCoords();
        plan.cost[size_t(id)] = cost_model->costOf(c);
        if (with_mirrors) {
            // Hoisted to once per node: the mirror coordinates, their
            // cost, and the mirrored unitary SWAP * U (paper Eq. 1 -- no
            // eigensolver call).
            NodeMirror &m = plan.mirror[size_t(id)];
            m.mirrorCoord = weyl::mirrorCoord(c);
            m.mirrorCost = cost_model->costOf(m.mirrorCoord);
            m.mirroredMatrix = weyl::gateSWAP() * g.matrix4();
        }
    }
    return plan;
}

/**
 * The routed Circuit a step list stands for: exactly the gates a pass
 * would have appended as it went -- the node's gate moved onto its
 * physical wires (a 2Q gate annotated with its Weyl coordinates when
 * the plan has a cost model), the premultiplied mirror with its Eq. 1
 * coordinates, or a SWAP annotated with the SWAP class.
 */
Circuit
materialize(const RoutePlan &plan, int num_phys,
            const std::vector<Step> &steps)
{
    Circuit out(num_phys, "routed");
    out.gates().reserve(steps.size());
    for (const Step &s : steps) {
        switch (s.kind) {
          case Step::Kind::Node: {
            Gate phys = *plan.gate[size_t(s.node)];
            if (plan.oneQ[size_t(s.node)]) {
                phys.qubits = {s.pa};
            } else {
                phys.qubits = {s.pa, s.pb};
                // The coords the plan costed, carried into the
                // pipeline's metrics.
                if (!plan.cost.empty())
                    phys.annotateCoords();
            }
            out.append(std::move(phys));
            break;
          }
          case Step::Kind::Mirror: {
            // U' = SWAP * U with the mirror coordinate annotated via
            // Eq. 1 -- no eigensolver call (paper Section VI-C); both
            // were precomputed into the plan's mirror table.
            const NodeMirror &mi = plan.mirror[size_t(s.node)];
            Gate phys = circuit::makeUnitary2(s.pa, s.pb, mi.mirroredMatrix);
            phys.mirrored = true;
            phys.coords = mi.mirrorCoord;
            out.append(std::move(phys));
            break;
          }
          case Step::Kind::Swap: {
            Gate sw = circuit::makeGate2(GateKind::SWAP, s.pa, s.pb);
            sw.coords = weyl::coordSWAP();
            out.append(std::move(sw));
            break;
          }
        }
    }
    return out;
}

/** Mutable routing state for one pass. */
struct PassState
{
    const RoutePlan *plan;
    const CouplingMap *coupling;
    const PassOptions *opts;
    PassScratch *scratch;
    Rng rng;

    Layout layout;
    std::vector<int> indegree;
    std::vector<int> front;      // dependency-free, unexecuted nodes
    std::vector<double> decay;   // per physical qubit
    int swaps_since_reset = 0;

    // The extended set depends only on the front layer and the plan --
    // never on the layout -- so consecutive stall steps (which only
    // swap wires) reuse the cached set. Any front mutation bumps
    // front_version; ext_version records which front the cached set
    // was built from (0 = invalid; versions start at 1).
    uint64_t front_version = 1;
    uint64_t ext_version = 0;

    std::vector<Step> &out;
    int swaps_added = 0;
    int mirrors_accepted = 0;
    int mirror_candidates = 0;
    RoutingCounters counters;

    // Running estimate of the routed circuit's pulse depth/total cost,
    // charged one emitted 2Q gate at a time (only with a cost model).
    std::vector<double> wire_depth; // per physical qubit
    double est_depth = 0;
    double est_total_cost = 0;

    explicit PassState(const RoutePlan &p, const CouplingMap &c,
                       const Layout &init, const PassOptions &o,
                       PassScratch &s, std::vector<Step> &steps)
        : plan(&p), coupling(&c), opts(&o), scratch(&s),
          rng(o.seed), layout(init), indegree(p.indegree),
          decay(size_t(c.numQubits()), 1.0), out(steps)
    {
        scratch->prepare(p.gate.size(), size_t(c.numQubits()));
        front = p.roots;
        // Every node is emitted once; only SWAPs grow the list past this.
        out.clear();
        out.reserve(p.gate.size());
        if (estimating())
            wire_depth.assign(size_t(c.numQubits()), 0.0);
    }

    /** The estimate runs whenever the plan carries a cost model. */
    bool estimating() const { return !plan->cost.empty(); }

    /**
     * Charge one emitted 2Q gate to the running estimate with exactly
     * computeMetrics' arithmetic, in emission order, so estDepth and
     * estTotalCost equal computeMetrics on the materialized circuit bit
     * for bit.
     */
    void
    charge(double cost, int pa, int pb)
    {
        est_total_cost += cost;
        double start = 0;
        start = std::max(start, wire_depth[size_t(pa)]);
        start = std::max(start, wire_depth[size_t(pb)]);
        wire_depth[size_t(pa)] = start + cost;
        wire_depth[size_t(pb)] = start + cost;
        est_depth = std::max(est_depth, start + cost);
    }

    void
    resetDecay()
    {
        std::fill(decay.begin(), decay.end(), 1.0);
        swaps_since_reset = 0;
    }

    /** Move a completed node's successors into the front layer. */
    void
    advance(int id)
    {
        for (int s : plan->succ[size_t(id)]) {
            if (s >= 0 && --indegree[size_t(s)] == 0)
                front.push_back(s);
        }
        ++front_version;
    }

    /**
     * Collect the lookahead window into scratch->ext: the next 2Q gates
     * after the front, breadth-first over the successor closure, capped
     * at kExtendedSetSize. With skip_node >= 0 the BFS seeds the front
     * minus that node first and the node last (the mirror decision's
     * view); those builds bypass the stall-step cache.
     */
    void
    buildExtendedSet(int skip_node = -1)
    {
        ++counters.extSetBuilds;
        auto &ext = scratch->ext;
        auto &walk = scratch->walk;
        ext.clear();
        walk.clear();
        for (int id : front) {
            if (id != skip_node)
                walk.push_back(id);
        }
        if (skip_node >= 0)
            walk.push_back(skip_node);
        const uint64_t epoch = ++scratch->epoch;
        auto &seen = scratch->seen;
        for (int id : walk)
            seen[size_t(id)] = epoch;
        // Walk the successor closure breadth-first collecting 2Q gates
        // that are not already in the front.
        size_t head = 0;
        while (head < walk.size() &&
               int(ext.size()) < kExtendedSetSize) {
            int id = walk[head++];
            for (int s : plan->succ[size_t(id)]) {
                if (s < 0 || seen[size_t(s)] == epoch)
                    continue;
                seen[size_t(s)] = epoch;
                if (plan->twoQ[size_t(s)]) {
                    ext.push_back(s);
                    if (int(ext.size()) >= kExtendedSetSize)
                        break;
                }
                walk.push_back(s);
            }
        }
        ext_version = skip_node < 0 ? front_version : 0;
    }

    /** Stall-step extended set, rebuilt only when the front changed. */
    void
    ensureExtendedSet()
    {
        if (ext_version == front_version) {
            ++counters.extSetReuses;
            return;
        }
        buildExtendedSet();
    }

    /** Distance of a 2Q node's wires under the live layout. */
    int
    nodeDistance(int id) const
    {
        const auto &w = plan->wires[size_t(id)];
        return coupling->distance(layout.toPhysical(w[0]),
                                  layout.toPhysical(w[1]));
    }

    /** Front-layer 2Q nodes that are not yet executable. */
    void
    buildBlockedFront()
    {
        auto &blocked = scratch->front2q;
        blocked.clear();
        for (int id : front) {
            if (!plan->twoQ[size_t(id)])
                continue;
            const auto &w = plan->wires[size_t(id)];
            if (!coupling->isEdge(layout.toPhysical(w[0]),
                                  layout.toPhysical(w[1])))
                blocked.push_back(id);
        }
    }

    // --- scoring ----------------------------------------------------------

    void
    clearTouch()
    {
        for (int p : scratch->touched)
            scratch->touch[size_t(p)].clear();
        scratch->touched.clear();
    }

    void
    pushTouch(int p, const TouchEntry &e)
    {
        auto &list = scratch->touch[size_t(p)];
        if (list.empty())
            scratch->touched.push_back(p);
        list.push_back(e);
    }

    static void
    accumulate(ScoreSums &s, int d, bool in_front)
    {
        if (in_front) {
            s.fineFront += d;
            s.unitFront += std::max(0, d - 1);
        } else {
            s.fineExt += d;
            s.unitExt += std::max(0, d - 1);
        }
    }

    /**
     * Build the per-step base: distances of every blocked-front and
     * extended-set node under the live layout, registered on both
     * physical endpoints so candidate deltas touch only the two swapped
     * wires. O(|F| + |E|) once per step.
     */
    ScoreSums
    buildBaseSums()
    {
        clearTouch();
        ScoreSums s;
        for (int pass = 0; pass < 2; ++pass) {
            const bool in_front = pass == 0;
            const auto &nodes =
                in_front ? scratch->front2q : scratch->ext;
            for (int id : nodes) {
                const auto &w = plan->wires[size_t(id)];
                int qa = layout.toPhysical(w[0]);
                int qb = layout.toPhysical(w[1]);
                int d = coupling->distance(qa, qb);
                accumulate(s, d, in_front);
                pushTouch(qa, {qb, d, in_front});
                pushTouch(qb, {qa, d, in_front});
            }
        }
        return s;
    }

    static void
    applyDelta(ScoreSums &s, const TouchEntry &e, int nd)
    {
        int dfine = nd - e.dist;
        int dunit = std::max(0, nd - 1) - std::max(0, e.dist - 1);
        if (e.in_front) {
            s.fineFront += dfine;
            s.unitFront += dunit;
        } else {
            s.fineExt += dfine;
            s.unitExt += dunit;
        }
    }

    /**
     * Score sums under the hypothetical layout with pa/pb swapped, by
     * adjusting only the nodes whose wires move. A node with BOTH
     * endpoints in {pa, pb} keeps its distance (the pair is preserved),
     * so its double-registration is skipped on both lists. O(degree of
     * the step's active wires) instead of O(|F| + |E|) per candidate.
     */
    ScoreSums
    deltaSums(const ScoreSums &base, int pa, int pb) const
    {
        ScoreSums s = base;
        const int *row_pb = coupling->distanceRow(pb);
        for (const TouchEntry &e : scratch->touch[size_t(pa)]) {
            if (e.other != pb)
                applyDelta(s, e, row_pb[e.other]);
        }
        const int *row_pa = coupling->distanceRow(pa);
        for (const TouchEntry &e : scratch->touch[size_t(pb)]) {
            if (e.other != pa)
                applyDelta(s, e, row_pa[e.other]);
        }
        return s;
    }

    /**
     * Reference scorer (ScoreMode::Naive): rescan every front/extended
     * node under the hypothetical layout, applied to the live layout
     * via ScopedSwap (apply/undo) rather than the historical O(n)
     * Layout copy. Produces the same integer sums as deltaSums by
     * construction; the scoring-equivalence tests compare the two over
     * the full Table III suite.
     */
    ScoreSums
    rescanSums(int swap_a = -1, int swap_b = -1)
    {
        std::optional<layout::ScopedSwap> guard;
        if (swap_a >= 0)
            guard.emplace(layout, swap_a, swap_b);
        ScoreSums s;
        for (int id : scratch->front2q)
            accumulate(s, nodeDistance(id), true);
        for (int id : scratch->ext)
            accumulate(s, nodeDistance(id), false);
        return s;
    }

    /**
     * The mirror outlook's two sums in one scan (ScoreMode::Delta): each
     * blocked-front and extended-set node is measured under the live
     * layout into `now`, and under the layout with pa/pb swapped into
     * `mirrored`; only nodes with an endpoint on pa or pb need a second
     * distance. A mirror decision weighs a single hypothetical swap, so
     * it builds no touch lists.
     */
    void
    mirrorScanSums(int pa, int pb, ScoreSums &now,
                   ScoreSums &mirrored) const
    {
        auto swapped = [pa, pb](int q) {
            return q == pa ? pb : q == pb ? pa : q;
        };
        for (int pass = 0; pass < 2; ++pass) {
            const bool in_front = pass == 0;
            const auto &nodes =
                in_front ? scratch->front2q : scratch->ext;
            for (int id : nodes) {
                const auto &w = plan->wires[size_t(id)];
                const int qa = layout.toPhysical(w[0]);
                const int qb = layout.toPhysical(w[1]);
                const int d = coupling->distance(qa, qb);
                accumulate(now, d, in_front);
                const int sa = swapped(qa);
                const int sb = swapped(qb);
                accumulate(mirrored,
                           sa == qa && sb == qb ? d
                                                : coupling->distance(sa, sb),
                           in_front);
            }
        }
    }

    /**
     * MIRAGE intermediate layer: decide whether to replace an executable
     * gate by its mirror (paper Algorithm 2). Returns true when the
     * mirror was accepted (the layout permutation is applied here).
     */
    bool
    considerMirror(int id)
    {
        if (opts->aggression == Aggression::None)
            return false;
        MIRAGE_ASSERT(opts->costModel, "mirror decisions need a cost model");
        const NodeMirror &mi = plan->mirror[size_t(id)];
        ++mirror_candidates;
        ++counters.mirrorOutlooks;
        counters.heuristicEvals += 2;

        const auto &wires = plan->wires[size_t(id)];
        int pa = layout.toPhysical(wires[0]);
        int pb = layout.toPhysical(wires[1]);

        buildBlockedFront();
        buildExtendedSet(id);

        ScoreSums now_sums, mirror_sums;
        if (opts->scoreMode == ScoreMode::Delta) {
            mirrorScanSums(pa, pb, now_sums, mirror_sums);
        } else {
            now_sums = rescanSums();
            mirror_sums = rescanSums(pa, pb);
        }
        const size_t ne = scratch->ext.size();
        double h_now = combineOutlook(now_sums, ne);
        double h_mirror = combineOutlook(mirror_sums, ne);

        double swap_cost = plan->swapCost;
        double cost_current = plan->cost[size_t(id)] + swap_cost * h_now;
        double cost_trial = mi.mirrorCost + swap_cost * h_mirror;

        bool accept = false;
        switch (opts->aggression) {
          case Aggression::None:
            break;
          case Aggression::Lower:
            accept = cost_trial < cost_current - 1e-12;
            break;
          case Aggression::Equal:
            accept = cost_trial <= cost_current + 1e-12;
            break;
          case Aggression::Always:
            accept = true;
            break;
        }
        if (accept)
            layout.swapPhysical(pa, pb);
        return accept;
    }

    /**
     * Emit an executable node onto physical wires. Returns true when
     * the layout changed (a mirror was accepted) -- the flush loop only
     * needs to rescan earlier front nodes in that case, because a 2Q
     * node's executability is a function of the layout alone.
     */
    bool
    execute(int id)
    {
        const auto &w = plan->wires[size_t(id)];
        if (plan->oneQ[size_t(id)]) {
            out.push_back({id, layout.toPhysical(w[0]), -1,
                           Step::Kind::Node});
            advance(id);
            return false;
        }

        int pa = layout.toPhysical(w[0]);
        int pb = layout.toPhysical(w[1]);
        bool mirrored = considerMirror(id);

        if (estimating())
            charge(mirrored ? plan->mirror[size_t(id)].mirrorCost
                            : plan->cost[size_t(id)],
                   pa, pb);
        out.push_back(
            {id, pa, pb, mirrored ? Step::Kind::Mirror : Step::Kind::Node});
        if (mirrored)
            ++mirrors_accepted;
        resetDecay();
        advance(id);
        return mirrored;
    }

    /** Stalled front: enumerate, score, and apply the best SWAP. */
    void
    stallStep()
    {
        // The stall step is the unit of routing progress: checking here
        // bounds overshoot past an expired deadline to one swap
        // decision, and no shared state is mid-mutation at this point.
        opts->deadline.check("route.stall");
        buildBlockedFront();
        MIRAGE_ASSERT(!scratch->front2q.empty(),
                      "stall without blocked gates");
        ensureExtendedSet();
        ++counters.stallSteps;

        // Candidates: every coupling edge with an endpoint on an active
        // wire (a physical wire of a blocked front node), each once.
        // Front nodes share no logical wire -- two gates on one wire are
        // ordered by the plan -- so each active wire is visited once, and
        // an edge between two active wires is emitted from its lower end.
        auto &candidates = scratch->candidates;
        candidates.clear();
        auto &active = scratch->wireMark;
        const uint64_t mark = ++scratch->wireEpoch;
        for (int id : scratch->front2q) {
            for (int lq : plan->wires[size_t(id)])
                active[size_t(layout.toPhysical(lq))] = mark;
        }
        for (int id : scratch->front2q) {
            for (int lq : plan->wires[size_t(id)]) {
                const int p = layout.toPhysical(lq);
                for (int nb : coupling->neighbors(p)) {
                    if (nb < p && active[size_t(nb)] == mark)
                        continue;
                    candidates.emplace_back(std::min(p, nb),
                                            std::max(p, nb));
                }
            }
        }
        counters.swapCandidates += candidates.size();

        const bool use_delta = opts->scoreMode == ScoreMode::Delta;
        const size_t nf = scratch->front2q.size();
        const size_t ne = scratch->ext.size();
        ScoreSums base;
        if (use_delta)
            base = buildBaseSums();

        double best = std::numeric_limits<double>::infinity();
        auto &best_swaps = scratch->bestSwaps;
        best_swaps.clear();
        for (auto [pa, pb] : candidates) {
            ++counters.heuristicEvals;
            ScoreSums s = use_delta ? deltaSums(base, pa, pb)
                                    : rescanSums(pa, pb);
            double h = combineHeuristic(s, nf, ne);
            h *= std::max(decay[size_t(pa)], decay[size_t(pb)]);
            if (h < best - 1e-12) {
                best = h;
                best_swaps.clear();
                best_swaps.emplace_back(pa, pb);
            } else if (h <= best + 1e-12) {
                best_swaps.emplace_back(pa, pb);
            }
        }
        // Candidates are scored in enumeration order, not sorted, and the
        // pick is the same as over a sorted list. With integer sums A, B
        // and k decay bumps since the last reset, the exact score is
        //   (A/|F| + B/(2|E|)) * (1 + k/1000)
        // (|E| read as 1 when the extended set is empty), an integer
        // multiple of 1/(2000 |F| |E|). Two different exact scores are
        // therefore at least that far apart: >= 4e-8 at |F| = 560 (half
        // of the largest shipped device, 1121 qubits) and |E| = 20, and
        // >= 1.2e-8 at |F| = 2048 (a 4096-qubit spec, the cap). A
        // computed score is within a few ulps of its exact value, so two
        // scores with equal exact values land less than 1e-12 apart
        // while scores stay below 2048. A score is at most about 1.5x
        // the device diameter, so that holds on every device whose
        // diameter is under 1360 hops (all shipped devices are under
        // 100). There the 1e-12 band above groups exactly the
        // candidates whose exact score is minimal, whatever the
        // evaluation order, and sorting that tied set restores the
        // order rng.index has always drawn from.
        std::sort(best_swaps.begin(), best_swaps.end());
        auto [pa, pb] = best_swaps[rng.index(best_swaps.size())];

        if (estimating())
            charge(plan->swapCost, pa, pb);
        out.push_back({-1, pa, pb, Step::Kind::Swap});
        layout.swapPhysical(pa, pb);
        ++swaps_added;
        decay[size_t(pa)] += kDecayIncrement;
        decay[size_t(pb)] += kDecayIncrement;
        if (++swaps_since_reset >= kDecayResetInterval)
            resetDecay();
    }

    /** Run the pass to completion. */
    void
    run()
    {
        while (!front.empty()) {
            // Flush everything executable. A single in-order sweep
            // emits the same gate sequence as the historical
            // restart-from-zero scan: blocked 2Q nodes can only become
            // executable when the layout changes (an accepted mirror),
            // so that is the one case that rescans the earlier front.
            bool progress = true;
            while (progress) {
                progress = false;
                for (size_t i = 0; i < front.size();) {
                    int id = front[i];
                    const auto &w = plan->wires[size_t(id)];
                    bool executable =
                        plan->oneQ[size_t(id)] ||
                        coupling->isEdge(layout.toPhysical(w[0]),
                                         layout.toPhysical(w[1]));
                    if (executable) {
                        front.erase(front.begin() + long(i));
                        ++front_version;
                        bool layout_changed = execute(id);
                        progress = true;
                        if (layout_changed)
                            i = 0;
                        // else: the erase shifted the next node into
                        // slot i; earlier nodes are still blocked.
                    } else {
                        ++i;
                    }
                }
            }
            if (front.empty())
                break;
            stallStep();
        }
    }
};

/**
 * Route-entry fail-fast: on a disconnected device, distance() returns
 * the -1 sentinel for cross-component pairs, which would otherwise flow
 * silently into the heuristic's integer score sums and corrupt every
 * SWAP decision. Refuse up front with a diagnostic instead.
 */
void
requireRoutableTopology(const CouplingMap &coupling)
{
    if (coupling.numQubits() <= 0)
        throw topology::TopologyError(
            "cannot route on empty coupling map '" + coupling.name() + "'");
    if (coupling.numComponents() != 1)
        throw topology::TopologyError(
            "cannot route on disconnected coupling map '" + coupling.name() +
            "': " + std::to_string(coupling.numQubits()) + " qubits in " +
            std::to_string(coupling.numComponents()) +
            " connected components; SABRE/MIRAGE distance sums are "
            "undefined across components (distance() == -1)");
}

/**
 * One pass from `initial`. Its decisions replace the contents of
 * `steps`; the result's `routed` stays empty until the caller
 * materializes the steps it keeps.
 */
RouteResult
routePassOnPlan(const RoutePlan &plan, const CouplingMap &coupling,
                const Layout &initial, const PassOptions &opts,
                PassScratch &scratch, std::vector<Step> &steps)
{
    MIRAGE_ASSERT(initial.size() == coupling.numQubits(),
                  "layout size mismatch");

    PassState state(plan, coupling, initial, opts, scratch, steps);
    state.run();

    RouteResult res;
    res.initial = initial;
    res.final = std::move(state.layout);
    res.swapsAdded = state.swaps_added;
    res.mirrorsAccepted = state.mirrors_accepted;
    res.mirrorCandidates = state.mirror_candidates;
    res.estDepth = state.est_depth;
    res.estTotalCost = state.est_total_cost;
    res.counters = state.counters;
    return res;
}

} // namespace

RouteResult
routePass(const Circuit &circuit, const CouplingMap &coupling,
          const Layout &initial, const PassOptions &opts)
{
    requireRoutableTopology(coupling);
    PassScratch scratch;
    const RoutePlan plan =
        makePlan(circuit, coupling.numQubits(), false, opts.costModel,
                 opts.aggression != Aggression::None);
    std::vector<Step> steps;
    RouteResult res =
        routePassOnPlan(plan, coupling, initial, opts, scratch, steps);
    res.routed = materialize(plan, coupling.numQubits(), steps);
    return res;
}

std::vector<Aggression>
mirageAggressionMix(int trials)
{
    // 5% level 0, 45% level 1, 45% level 2, 5% level 3 (Section IV-C).
    // The edge levels are guaranteed one slot each whenever there are
    // enough trials: level 0 keeps a plain-SABRE fallback in the pool for
    // mirror-hostile circuits, level 3 explores the always-mirror
    // extreme; depth post-selection then keeps the best of all worlds.
    std::vector<Aggression> mix;
    for (int i = 0; i < trials; ++i) {
        double f = (i + 0.5) / trials;
        if (f < 0.05)
            mix.push_back(Aggression::None);
        else if (f < 0.50)
            mix.push_back(Aggression::Lower);
        else if (f < 0.95)
            mix.push_back(Aggression::Equal);
        else
            mix.push_back(Aggression::Always);
    }
    if (trials >= 4) {
        if (std::find(mix.begin(), mix.end(), Aggression::None) ==
            mix.end())
            mix.front() = Aggression::None;
        if (std::find(mix.begin(), mix.end(), Aggression::Always) ==
            mix.end())
            mix.back() = Aggression::Always;
    }
    return mix;
}

namespace {

/**
 * Per-trial RNG stream layout (counters within stream (seed, trial)):
 * counter 0 seeds the random initial layout, counters 1..2P seed the P
 * forward/backward refinement passes, and counter 2P+1+st seeds swap
 * trial st. Every value is a pure function of (seed, trial, counter),
 * so a trial computes identical results on any thread.
 */
enum : uint64_t { kLayoutCounter = 0, kRefineBase = 1 };

PassOptions
passForTrial(const TrialOptions &opts, int trial)
{
    PassOptions pass = opts.pass;
    if (!opts.trialAggression.empty())
        pass.aggression = opts.trialAggression[size_t(trial) %
                                               opts.trialAggression.size()];
    return pass;
}

} // namespace

RouteResult
routeWithTrials(const Circuit &circuit, const CouplingMap &coupling,
                const TrialOptions &opts)
{
    requireRoutableTopology(coupling);
    MIRAGE_ASSERT(opts.layoutTrials > 0 && opts.swapTrials > 0,
                  "need at least one layout and one swap trial");
    if (opts.postSelect == PostSelect::Depth) {
        MIRAGE_ASSERT(opts.pass.costModel,
                      "depth post-selection needs a cost model");
    }
    // Both walk directions are planned exactly once (compact node
    // arrays + per-node mirror costs/matrices); every pass of every
    // trial reads the same immutable plans.
    bool with_mirrors =
        opts.trialAggression.empty()
            ? opts.pass.aggression != Aggression::None
            : std::any_of(opts.trialAggression.begin(),
                          opts.trialAggression.end(),
                          [](Aggression a) {
                              return a != Aggression::None;
                          });
    const RoutePlan fwd_plan = makePlan(circuit, coupling.numQubits(), false,
                                        opts.pass.costModel, with_mirrors);
    const RoutePlan bwd_plan = makePlan(circuit, coupling.numQubits(), true,
                                        opts.pass.costModel, with_mirrors);

    // Null pool = pure serial fast path; otherwise use the caller's
    // pool or spin up a local one.
    std::optional<exec::ThreadPool> local_pool;
    exec::ThreadPool *pool = opts.pool;
    if (!pool && opts.threads != 1) {
        local_pool.emplace(opts.threads);
        pool = &*local_pool;
    }

    const int trials = opts.layoutTrials;
    const int swap_trials = opts.swapTrials;
    const uint64_t swap_base =
        kRefineBase + 2 * uint64_t(opts.forwardBackwardPasses);

    // One task per layout trial: it refines its random layout with
    // fwd/bwd passes, then runs its swap trials (final forward routes
    // from the refined layout), every pass on one scratch arena and one
    // step buffer. The flattened layoutTrials x swapTrials grid is
    // reduced streamingly to the lexicographic (metric, grid-index)
    // minimum. Taking the lowest index among equal metrics reproduces
    // the serial strictly-lower-wins loop exactly, independent of
    // completion order, while keeping only the running best step list
    // live instead of the whole grid.
    std::vector<RoutingCounters> trial_counters(static_cast<size_t>(trials));
    std::optional<RouteResult> best;
    std::vector<Step> best_steps;
    double best_metric = std::numeric_limits<double>::infinity();
    int64_t best_idx = int64_t(trials) * int64_t(swap_trials);
    std::mutex best_mutex;
    exec::parallelFor(pool, trials, [&](int64_t t) {
        StreamRng stream(opts.seed, uint64_t(t));
        PassOptions pass = passForTrial(opts, int(t));
        Rng layout_rng(stream.at(kLayoutCounter));
        Layout layout = Layout::random(coupling.numQubits(), layout_rng);
        PassScratch scratch;
        std::vector<Step> steps;
        RoutingCounters &counters = trial_counters[size_t(t)];
        // Refinement passes only feed their final layout forward; their
        // decisions are never materialized.
        for (int iter = 0; iter < opts.forwardBackwardPasses; ++iter) {
            pass.seed = stream.at(kRefineBase + 2 * uint64_t(iter));
            RouteResult fwd = routePassOnPlan(fwd_plan, coupling, layout,
                                              pass, scratch, steps);
            pass.seed = stream.at(kRefineBase + 2 * uint64_t(iter) + 1);
            RouteResult bwd = routePassOnPlan(bwd_plan, coupling, fwd.final,
                                              pass, scratch, steps);
            layout = std::move(bwd.final);
            counters.add(fwd.counters);
            counters.add(bwd.counters);
        }
        for (int st = 0; st < swap_trials; ++st) {
            pass.seed = stream.at(swap_base + uint64_t(st));
            RouteResult res = routePassOnPlan(fwd_plan, coupling, layout,
                                              pass, scratch, steps);
            counters.add(res.counters);
            const int64_t i = t * swap_trials + st;
            const double metric = opts.postSelect == PostSelect::Swaps
                                      ? double(res.swapsAdded)
                                      : res.estDepth;
            std::lock_guard<std::mutex> lock(best_mutex);
            if (metric < best_metric ||
                (metric == best_metric && i < best_idx)) {
                best_metric = metric;
                best_idx = i;
                best = std::move(res);
                // Trade buffers: the winner's steps stay live, and this
                // trial goes on with the displaced buffer's capacity.
                std::swap(best_steps, steps);
            }
        }
    });
    MIRAGE_ASSERT(best.has_value(), "no routing trial succeeded");

    // Only the post-selected winner becomes a Circuit.
    best->routed = materialize(fwd_plan, coupling.numQubits(), best_steps);
    // Report the routing-phase work of the WHOLE grid (refinement +
    // swap trials), summed in index order so the total is identical
    // for every thread count.
    RoutingCounters total;
    for (const auto &c : trial_counters)
        total.add(c);
    best->counters = total;
    return std::move(*best);
}

} // namespace mirage::router
