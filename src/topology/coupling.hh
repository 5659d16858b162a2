/**
 * @file
 * Hardware coupling maps (qubit connectivity graphs).
 *
 * Provides the topologies evaluated in the paper: line, ring, square
 * lattice (6x6, 8x8), a 57-qubit heavy-hex lattice, and all-to-all, plus
 * the large-device instances (heavy-hex 433/1121 a la IBM Osprey/Condor).
 *
 * Storage is split by device size:
 *
 *  - **Dense mode** (n <= kDenseQubitThreshold): flat O(n^2) adjacency
 *    and all-pairs BFS distance tables, exactly as before. `distance`
 *    and `isEdge` are single loads; `distanceRow` is a pointer into the
 *    row-major table.
 *  - **Sparse mode** (larger devices, or forced via `asSparse()`): CSR
 *    adjacency only -- O(n + m) resident memory -- with distance rows
 *    computed by BFS on demand and kept in a small per-thread LRU row
 *    cache. `distanceRow` still returns a contiguous `const int *` row,
 *    so the routing hot path in src/router/sabre.cc is mode-agnostic.
 *
 * Both modes produce identical `distance` / `distanceRow` /
 * `shortestPath` results (property-tested), so routing output is
 * bit-identical regardless of storage mode.
 */

#ifndef MIRAGE_TOPOLOGY_COUPLING_HH
#define MIRAGE_TOPOLOGY_COUPLING_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mirage::topology {

/**
 * Invalid topology construction or query: bad generator sizes,
 * out-of-range / self-loop / duplicate edges, or a path request across
 * disconnected components. Thrown (rather than abort()) so the CLI can
 * surface a clean `mirage: ...` diagnostic and tests can EXPECT_THROW.
 */
class TopologyError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Undirected qubit connectivity graph. */
class CouplingMap
{
  public:
    /**
     * Lightweight view over one CSR adjacency row. Iterates like
     * `const std::vector<int> &` did; valid as long as the CouplingMap
     * it came from.
     */
    class NeighborSpan
    {
      public:
        NeighborSpan(const int *begin, const int *end)
            : begin_(begin), end_(end)
        {
        }
        const int *begin() const { return begin_; }
        const int *end() const { return end_; }
        size_t size() const { return size_t(end_ - begin_); }
        bool empty() const { return begin_ == end_; }
        int operator[](size_t i) const { return begin_[i]; }

      private:
        const int *begin_;
        const int *end_;
    };

    /** Devices up to this many qubits keep the flat O(n^2) tables. */
    static constexpr int kDenseQubitThreshold = 128;
    /** Distance rows each thread keeps for sparse maps (least recently
     * used evicted first). The router's deltaSums holds two rows at
     * once, so fetching the second must never evict the first. */
    static constexpr size_t kRowCacheRows = 128;
    static_assert(kRowCacheRows >= 2);
    /** parseSpec() refuses specs above these sizes, so a request
     * cannot ask for a multi-GB device; every shipped device is well
     * under both. */
    static constexpr int kMaxSpecQubits = 4096;
    static constexpr int kMaxSpecEdges = 65536;

    CouplingMap() = default;
    /** Throws TopologyError on negative qubit count, out-of-range,
     * self-loop, or duplicate edges. */
    CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges,
                std::string name = "custom");

    int numQubits() const { return numQubits_; }
    const std::string &name() const { return name_; }
    const std::vector<std::pair<int, int>> &edges() const { return edges_; }
    /** Sorted neighbor list of q (CSR row view). */
    NeighborSpan neighbors(int q) const
    {
        return NeighborSpan(csrNeighbors_.data() + csrOffsets_[size_t(q)],
                            csrNeighbors_.data() + csrOffsets_[size_t(q) + 1]);
    }

    /** Adjacency probe (the routing flush loop's executability test):
     * O(1) matrix load in dense mode, bounded scan of a sorted CSR row
     * (degree <= 4 on every shipped lattice) in sparse mode. */
    bool isEdge(int a, int b) const
    {
        if (!sparse_)
            return adj_[size_t(a) * size_t(numQubits_) + size_t(b)] != 0;
        for (int nb : neighbors(a)) {
            if (nb == b)
                return true;
            if (nb > b)
                return false;
        }
        return false;
    }
    /** Shortest-path distance (hops); -1 if disconnected. Sparse mode
     * resolves through the per-thread row cache. */
    int distance(int a, int b) const
    {
        if (!sparse_)
            return dist_[size_t(a) * size_t(numQubits_) + size_t(b)];
        return sparseRow(a)[b];
    }
    /**
     * Row `a` of the all-pairs distance table: `distanceRow(a)[b] ==
     * distance(a, b)`. Always contiguous `int[numQubits()]` storage so
     * the routing hot path can hoist one pointer per swap candidate.
     * Dense mode: a pointer into the flat table, valid for the map's
     * lifetime. Sparse mode: a pointer into the calling thread's LRU
     * row cache, valid until that thread faults in `kRowCacheRows - 1`
     * further distinct rows (the router holds at most two rows at a
     * time).
     */
    const int *distanceRow(int a) const
    {
        if (!sparse_)
            return dist_.data() + size_t(a) * size_t(numQubits_);
        return sparseRow(a);
    }
    bool isConnected() const
    {
        return numQubits_ > 0 && numComponents_ == 1;
    }
    /** Number of connected components (0 for the empty map). */
    int numComponents() const { return numComponents_; }
    /** Component id of qubit q (ids are dense, 0-based). */
    int componentOf(int q) const { return component_[size_t(q)]; }
    bool sameComponent(int a, int b) const
    {
        return component_[size_t(a)] == component_[size_t(b)];
    }
    int maxDegree() const;

    /** True when this map uses sparse (CSR + on-demand BFS) storage. */
    bool sparse() const { return sparse_; }
    /** Copy of this map with sparse storage forced regardless of size
     * (test hook for dense-vs-sparse equivalence checks). */
    CouplingMap asSparse() const;

    /** Resident bytes of derived tables (CSR, components, dense
     * adjacency/distance tables). Excludes the per-thread row cache:
     * each resident row holds numQubits() ints. */
    size_t derivedTableBytes() const;

    /**
     * A shortest path from a to b (inclusive of endpoints). Throws
     * TopologyError if a and b are in different components (previously
     * this spun forever walking -1 distances).
     */
    std::vector<int> shortestPath(int a, int b) const;

    // Sparse row cache (per-thread; shared by all sparse maps) --------
    struct RowCacheStats
    {
        size_t rows = 0; ///< rows currently resident (<= kRowCacheRows)
        uint64_t hits = 0;
        uint64_t misses = 0;   ///< each miss is one O(n + m) BFS
        uint64_t evictions = 0;
    };
    /** Stats for the calling thread's row cache. */
    static RowCacheStats rowCacheStats();
    /** Drop all cached rows (and reset stats) on the calling thread. */
    static void clearRowCache();

    // Generators -------------------------------------------------------
    static CouplingMap line(int n);
    static CouplingMap ring(int n);
    static CouplingMap grid(int rows, int cols);
    static CouplingMap allToAll(int n);
    /**
     * IBM-style heavy-hex lattice: rows of linearly connected qubits with
     * bridge qubits between rows at alternating columns (period 4). Row
     * count and width control the size; degree never exceeds 3.
     */
    static CouplingMap heavyHex(int rows, int row_width);
    /** The 57-qubit heavy-hex instance used in the paper's evaluation. */
    static CouplingMap heavyHex57();
    /** 433-qubit heavy-hex (IBM Osprey scale); sparse storage. */
    static CouplingMap heavyHex433();
    /** 1121-qubit heavy-hex (IBM Condor scale); sparse storage. */
    static CouplingMap heavyHex1121();

    /**
     * Parse a device spec string shared by the CLI and the serve
     * request schema: grid<R>x<C>, line<N>, ring<N>, heavyhex57,
     * heavyhex433, heavyhex1121, alltoall<N>, or "auto" (the smallest
     * square grid with at least `min_qubits` sites). Throws
     * std::invalid_argument (listing the accepted forms) on anything
     * else, and on a spec above kMaxSpecQubits or kMaxSpecEdges;
     * callers map that to their own usage-error type.
     */
    static CouplingMap parseSpec(const std::string &spec, int min_qubits);
    /**
     * The concrete spec "auto" stands for at `min_qubits` sites:
     * "grid<S>x<S>" for the smallest square grid that fits. Any other
     * spec comes back unchanged. Throws std::invalid_argument when that
     * grid would be above kMaxSpecQubits. parseSpec() and the serve
     * topology cache both resolve "auto" through here.
     */
    static std::string resolveAutoSpec(const std::string &spec,
                                       int min_qubits);
    /** The accepted parseSpec() forms, for help text and errors. */
    static const char *specForms();

  private:
    void buildDerived(bool force_sparse);
    /** BFS from src over the CSR adjacency into dist[0..n), which must
     * be pre-filled with -1. */
    void bfsFrom(int src, int *dist) const;
    const int *sparseRow(int a) const;

    int numQubits_ = 0;
    std::string name_;
    std::vector<std::pair<int, int>> edges_;

    // CSR adjacency (both modes): neighbors of q are
    // csrNeighbors_[csrOffsets_[q] .. csrOffsets_[q+1]), sorted.
    std::vector<int> csrOffsets_;
    std::vector<int> csrNeighbors_;
    /** Connected-component id per qubit. */
    std::vector<int> component_;
    int numComponents_ = 0;

    bool sparse_ = false;
    /** Globally unique id keying this map's rows in the per-thread row
     * cache (sparse mode; never reused, so stale entries can't alias a
     * new map). Copies share the id -- identical edges, identical rows. */
    uint64_t topologyId_ = 0;

    // Dense mode only:
    /** Row-major numQubits_ x numQubits_ adjacency matrix. */
    std::vector<uint8_t> adj_;
    /** Row-major numQubits_ x numQubits_ all-pairs BFS distances. */
    std::vector<int> dist_;
};

} // namespace mirage::topology

#endif // MIRAGE_TOPOLOGY_COUPLING_HH
