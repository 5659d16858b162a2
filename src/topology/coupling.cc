/**
 * @file
 * Coupling map construction (line, ring, grid, heavy-hex, all-to-all),
 * CSR adjacency, and BFS distances: precomputed all-pairs tables in
 * dense mode, on-demand rows behind a per-thread LRU cache in sparse
 * mode.
 */

#include "topology/coupling.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <string_view>

#include "common/lru_cache.hh"

namespace mirage::topology {

namespace {

std::string
edgeStr(int a, int b)
{
    return "(" + std::to_string(a) + "," + std::to_string(b) + ")";
}

/** Next topologyId_ for a sparse map. Never reused, so a row cached for
 * a destroyed map can never be served to a different topology. */
std::atomic<uint64_t> g_nextTopologyId{1};

// --- per-thread LRU cache of BFS distance rows (sparse mode) ----------
//
// Thread-local by design: CouplingMap is shared read-only across the
// routing trial threads (exec::parallelFor), so a shared mutable cache
// would need locking on the hottest lookup in the router and evictions
// could dangle row pointers held by another thread. Per-thread caches
// are lock-free, TSan-clean, and bounded at kRowCacheRows * n * 4 bytes
// per routing thread.

struct RowKey
{
    uint64_t id;
    int src;
    bool operator==(const RowKey &o) const
    {
        return id == o.id && src == o.src;
    }
};

struct RowKeyHash
{
    size_t operator()(const RowKey &k) const
    {
        uint64_t h = k.id * 0x9E3779B97F4A7C15ull ^ uint64_t(uint32_t(k.src));
        return size_t(h ^ (h >> 32));
    }
};

using RowCache = LruCache<RowKey, std::vector<int>, RowKeyHash>;

thread_local RowCache t_rowCache(CouplingMap::kRowCacheRows);
thread_local uint64_t t_rowHits = 0;
thread_local uint64_t t_rowMisses = 0;

} // namespace

CouplingMap::CouplingMap(int num_qubits,
                         std::vector<std::pair<int, int>> edges,
                         std::string name)
    : numQubits_(num_qubits), name_(std::move(name)), edges_(std::move(edges))
{
    if (numQubits_ < 0)
        throw TopologyError("coupling map '" + name_ +
                            "': negative qubit count " +
                            std::to_string(numQubits_));
    for (auto &[a, b] : edges_) {
        if (a < 0 || a >= numQubits_ || b < 0 || b >= numQubits_)
            throw TopologyError("coupling map '" + name_ + "': edge " +
                                edgeStr(a, b) + " out of range [0, " +
                                std::to_string(numQubits_) + ")");
        if (a == b)
            throw TopologyError("coupling map '" + name_ +
                                "': self-loop edge on qubit " +
                                std::to_string(a));
        if (a > b)
            std::swap(a, b);
    }
    std::sort(edges_.begin(), edges_.end());
    auto dup = std::adjacent_find(edges_.begin(), edges_.end());
    if (dup != edges_.end())
        throw TopologyError("coupling map '" + name_ + "': duplicate edge " +
                            edgeStr(dup->first, dup->second));
    buildDerived(/*force_sparse=*/false);
}

void
CouplingMap::buildDerived(bool force_sparse)
{
    const size_t n = size_t(numQubits_);
    sparse_ = force_sparse || numQubits_ > kDenseQubitThreshold;

    // CSR adjacency (both modes). Edges are sorted and unique; rows come
    // out sorted because we fill ascending-neighbor per endpoint, then
    // sort each row (the b->a direction arrives out of order).
    csrOffsets_.assign(n + 1, 0);
    for (const auto &[a, b] : edges_) {
        ++csrOffsets_[size_t(a) + 1];
        ++csrOffsets_[size_t(b) + 1];
    }
    for (size_t q = 0; q < n; ++q)
        csrOffsets_[q + 1] += csrOffsets_[q];
    csrNeighbors_.assign(2 * edges_.size(), 0);
    std::vector<int> cursor(csrOffsets_.begin(), csrOffsets_.end() - 1);
    for (const auto &[a, b] : edges_) {
        csrNeighbors_[size_t(cursor[size_t(a)]++)] = b;
        csrNeighbors_[size_t(cursor[size_t(b)]++)] = a;
    }
    for (size_t q = 0; q < n; ++q)
        std::sort(csrNeighbors_.begin() + csrOffsets_[q],
                  csrNeighbors_.begin() + csrOffsets_[q + 1]);

    // Connected components, O(n + m): the route-entry fail-fast and the
    // shortestPath disconnected check key off these ids in O(1).
    component_.assign(n, -1);
    numComponents_ = 0;
    std::vector<int> queue;
    queue.reserve(n);
    for (int root = 0; root < numQubits_; ++root) {
        if (component_[size_t(root)] >= 0)
            continue;
        int comp = numComponents_++;
        component_[size_t(root)] = comp;
        queue.clear();
        queue.push_back(root);
        for (size_t head = 0; head < queue.size(); ++head) {
            for (int v : neighbors(queue[head])) {
                if (component_[size_t(v)] < 0) {
                    component_[size_t(v)] = comp;
                    queue.push_back(v);
                }
            }
        }
    }

    if (!sparse_) {
        // Dense fast path: flat adjacency matrix + all-pairs distances.
        adj_.assign(n * n, 0);
        for (const auto &[a, b] : edges_) {
            adj_[size_t(a) * n + size_t(b)] = 1;
            adj_[size_t(b) * n + size_t(a)] = 1;
        }
        dist_.assign(n * n, -1);
        for (int src = 0; src < numQubits_; ++src)
            bfsFrom(src, dist_.data() + size_t(src) * n);
        topologyId_ = 0;
        return;
    }

    // Sparse mode: no O(n^2) tables. Distance rows are BFS-on-demand via
    // the per-thread cache.
    adj_.clear();
    adj_.shrink_to_fit();
    dist_.clear();
    dist_.shrink_to_fit();
    topologyId_ = g_nextTopologyId.fetch_add(1, std::memory_order_relaxed);
}

void
CouplingMap::bfsFrom(int src, int *dist) const
{
    dist[src] = 0;
    std::vector<int> queue;
    queue.reserve(size_t(numQubits_));
    queue.push_back(src);
    for (size_t head = 0; head < queue.size(); ++head) {
        int u = queue[head];
        for (int v : neighbors(u)) {
            if (dist[v] < 0) {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
}

const int *
CouplingMap::sparseRow(int a) const
{
    const RowKey key{topologyId_, a};
    if (const std::vector<int> *row = t_rowCache.get(key)) {
        ++t_rowHits;
        return row->data();
    }
    ++t_rowMisses;
    std::vector<int> row(size_t(numQubits_), -1);
    bfsFrom(a, row.data());
    return t_rowCache.put(key, std::move(row)).data();
}

int
CouplingMap::maxDegree() const
{
    int best = 0;
    for (int q = 0; q < numQubits_; ++q)
        best = std::max(best, int(neighbors(q).size()));
    return best;
}

CouplingMap
CouplingMap::asSparse() const
{
    CouplingMap m;
    m.numQubits_ = numQubits_;
    m.name_ = name_;
    m.edges_ = edges_;
    m.buildDerived(/*force_sparse=*/true);
    return m;
}

size_t
CouplingMap::derivedTableBytes() const
{
    return csrOffsets_.capacity() * sizeof(int) +
           csrNeighbors_.capacity() * sizeof(int) +
           component_.capacity() * sizeof(int) +
           adj_.capacity() * sizeof(uint8_t) +
           dist_.capacity() * sizeof(int);
}

std::vector<int>
CouplingMap::shortestPath(int a, int b) const
{
    if (a < 0 || a >= numQubits_ || b < 0 || b >= numQubits_)
        throw TopologyError("shortestPath(" + std::to_string(a) + ", " +
                            std::to_string(b) + ") out of range on '" +
                            name_ + "' (" + std::to_string(numQubits_) +
                            " qubits)");
    if (!sameComponent(a, b))
        throw TopologyError(
            "no path between qubits " + std::to_string(a) + " and " +
            std::to_string(b) + " on '" + name_ +
            "': they are in different connected components (" +
            std::to_string(componentOf(a)) + " vs " +
            std::to_string(componentOf(b)) + ")");
    // Walk b -> a through any neighbor one hop closer to a. One row
    // fetch covers the whole reconstruction in either storage mode, and
    // both modes walk identical rows, so the returned path is identical.
    const int *row = distanceRow(a);
    std::vector<int> path = {b};
    int cur = b;
    while (cur != a) {
        for (int nb : neighbors(cur)) {
            if (row[nb] == row[cur] - 1) {
                cur = nb;
                path.push_back(cur);
                break;
            }
        }
    }
    std::reverse(path.begin(), path.end());
    return path;
}

CouplingMap::RowCacheStats
CouplingMap::rowCacheStats()
{
    RowCacheStats s;
    s.rows = t_rowCache.size();
    s.hits = t_rowHits;
    s.misses = t_rowMisses;
    // Each miss inserts one new key, and only an eviction (or
    // clearRowCache, which also zeroes the counters) removes one.
    s.evictions = t_rowMisses - s.rows;
    return s;
}

void
CouplingMap::clearRowCache()
{
    t_rowCache.clear();
    t_rowHits = t_rowMisses = 0;
}

CouplingMap
CouplingMap::line(int n)
{
    if (n <= 0)
        throw TopologyError("line(" + std::to_string(n) +
                            "): qubit count must be positive");
    std::vector<std::pair<int, int>> e;
    for (int i = 0; i + 1 < n; ++i)
        e.emplace_back(i, i + 1);
    return CouplingMap(n, std::move(e), "line-" + std::to_string(n));
}

CouplingMap
CouplingMap::ring(int n)
{
    if (n <= 0)
        throw TopologyError("ring(" + std::to_string(n) +
                            "): qubit count must be positive");
    auto cm = line(n);
    auto e = cm.edges();
    if (n > 2)
        e.emplace_back(0, n - 1);
    return CouplingMap(n, std::move(e), "ring-" + std::to_string(n));
}

CouplingMap
CouplingMap::grid(int rows, int cols)
{
    if (rows <= 0 || cols <= 0)
        throw TopologyError("grid(" + std::to_string(rows) + ", " +
                            std::to_string(cols) +
                            "): dimensions must be positive");
    std::vector<std::pair<int, int>> e;
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                e.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                e.emplace_back(id(r, c), id(r + 1, c));
        }
    }
    return CouplingMap(rows * cols, std::move(e),
                       "grid-" + std::to_string(rows) + "x" +
                           std::to_string(cols));
}

CouplingMap
CouplingMap::allToAll(int n)
{
    if (n <= 0)
        throw TopologyError("allToAll(" + std::to_string(n) +
                            "): qubit count must be positive");
    std::vector<std::pair<int, int>> e;
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            e.emplace_back(i, j);
    return CouplingMap(n, std::move(e), "a2a-" + std::to_string(n));
}

CouplingMap
CouplingMap::heavyHex(int rows, int row_width)
{
    if (rows <= 0 || row_width <= 0)
        throw TopologyError("heavyHex(" + std::to_string(rows) + ", " +
                            std::to_string(row_width) +
                            "): dimensions must be positive");
    // Row qubits 0 .. rows*row_width-1 laid out row-major and connected in
    // lines; bridge qubits between consecutive rows at columns congruent
    // to 0 (even gaps) or 2 (odd gaps) mod 4, which tiles the plane with
    // heavy hexagons and keeps every degree <= 3.
    std::vector<std::pair<int, int>> e;
    auto id = [row_width](int r, int c) { return r * row_width + c; };
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c + 1 < row_width; ++c)
            e.emplace_back(id(r, c), id(r, c + 1));

    int next = rows * row_width;
    for (int gap = 0; gap + 1 < rows; ++gap) {
        int offset = (gap % 2 == 0) ? 0 : 2;
        for (int c = offset; c < row_width; c += 4) {
            int bridge = next++;
            e.emplace_back(id(gap, c), bridge);
            e.emplace_back(bridge, id(gap + 1, c));
        }
    }
    return CouplingMap(next, std::move(e),
                       "heavyhex-" + std::to_string(next));
}

CouplingMap
CouplingMap::heavyHex57()
{
    // 5 rows x 9 row qubits = 45 plus 10 bridges = 55; two boundary flag
    // qubits (as on IBM devices) bring the lattice to 57 while keeping the
    // maximum degree at 3.
    CouplingMap base = heavyHex(5, 9);
    int n = base.numQubits();
    auto e = base.edges();
    // Dangling boundary qubits attached to degree-2 corner-row sites
    // (columns without a bridge in the adjacent gap).
    e.emplace_back(2, n);             // above row 0, column 2
    e.emplace_back(4 * 9 + 4, n + 1); // below row 4, column 4
    return CouplingMap(n + 2, std::move(e), "heavyhex-57");
}

CouplingMap
CouplingMap::heavyHex433()
{
    // IBM Osprey scale: 15 rows x 23 row qubits = 345 plus 14 gaps x 6
    // bridges = 84 -> 429; four boundary flag qubits on degree-2 sites
    // (row 0 and row 14 at odd columns, which never host a bridge) bring
    // it to 433 with max degree still 3. Over kDenseQubitThreshold, so
    // this builds in sparse mode.
    CouplingMap base = heavyHex(15, 23);
    int n = base.numQubits();
    auto e = base.edges();
    e.emplace_back(1, n);               // above row 0, column 1
    e.emplace_back(3, n + 1);           // above row 0, column 3
    e.emplace_back(14 * 23 + 1, n + 2); // below row 14, column 1
    e.emplace_back(14 * 23 + 3, n + 3); // below row 14, column 3
    return CouplingMap(n + 4, std::move(e), "heavyhex-433");
}

CouplingMap
CouplingMap::heavyHex1121()
{
    // IBM Condor scale: 25 rows x 36 row qubits = 900 plus 24 gaps x 9
    // bridges = 216 -> 1116; five boundary flag qubits on degree-2 sites
    // bring it to 1121 with max degree still 3. Sparse mode.
    CouplingMap base = heavyHex(25, 36);
    int n = base.numQubits();
    auto e = base.edges();
    e.emplace_back(1, n);               // above row 0, column 1
    e.emplace_back(3, n + 1);           // above row 0, column 3
    e.emplace_back(5, n + 2);           // above row 0, column 5
    e.emplace_back(24 * 36 + 1, n + 3); // below row 24, column 1
    e.emplace_back(24 * 36 + 3, n + 4); // below row 24, column 3
    return CouplingMap(n + 5, std::move(e), "heavyhex-1121");
}

namespace {

std::invalid_argument
specTooLarge(const std::string &spec)
{
    return std::invalid_argument(
        "topology '" + spec + "' is too large (at most " +
        std::to_string(CouplingMap::kMaxSpecQubits) + " qubits and " +
        std::to_string(CouplingMap::kMaxSpecEdges) + " edges)");
}

} // namespace

const char *
CouplingMap::specForms()
{
    return "grid<R>x<C>, line<N>, ring<N>, heavyhex57, heavyhex433, "
           "heavyhex1121, alltoall<N>, or auto";
}

CouplingMap
CouplingMap::parseSpec(const std::string &spec, int min_qubits)
{
    // Sizes saturate just above the qubit bound, so the 64-bit qubit and
    // edge counts below cannot overflow and nothing is allocated before
    // the bound check.
    auto parseSize = [](std::string_view digits, int64_t *value) {
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string_view::npos)
            return false;
        if (std::from_chars(digits.data(), digits.data() + digits.size(),
                            *value)
                    .ec != std::errc() ||
            *value > kMaxSpecQubits)
            *value = kMaxSpecQubits + 1;
        return *value > 0;
    };
    auto checkSize = [&spec](int64_t qubits, int64_t edges) {
        if (qubits > kMaxSpecQubits || edges > kMaxSpecEdges)
            throw specTooLarge(spec);
    };

    if (spec == "auto")
        return parseSpec(resolveAutoSpec(spec, min_qubits), min_qubits);
    if (spec == "heavyhex57")
        return heavyHex57();
    if (spec == "heavyhex433")
        return heavyHex433();
    if (spec == "heavyhex1121")
        return heavyHex1121();
    const std::string_view view(spec);
    int64_t n = 0;
    if (view.rfind("grid", 0) == 0) {
        const size_t x = view.find('x', 4);
        int64_t c = 0;
        if (x != std::string_view::npos &&
            parseSize(view.substr(4, x - 4), &n) &&
            parseSize(view.substr(x + 1), &c)) {
            checkSize(n * c, n * (c - 1) + c * (n - 1));
            return grid(int(n), int(c));
        }
    }
    if (view.rfind("line", 0) == 0 && parseSize(view.substr(4), &n)) {
        checkSize(n, n - 1);
        return line(int(n));
    }
    if (view.rfind("ring", 0) == 0 && parseSize(view.substr(4), &n)) {
        checkSize(n, n > 2 ? n : n - 1);
        return ring(int(n));
    }
    if (view.rfind("alltoall", 0) == 0 && parseSize(view.substr(8), &n)) {
        checkSize(n, n * (n - 1) / 2);
        return allToAll(int(n));
    }
    throw std::invalid_argument("unknown topology '" + spec +
                                "' (expected " + specForms() + ")");
}

std::string
CouplingMap::resolveAutoSpec(const std::string &spec, int min_qubits)
{
    if (spec != "auto")
        return spec;
    // Bounded before the search: the side never passes 64 (a
    // kMaxSpecQubits grid has 2*64*63 edges, under kMaxSpecEdges).
    if (int64_t(min_qubits) > kMaxSpecQubits)
        throw specTooLarge(spec);
    int64_t side = 1;
    while (side * side < min_qubits)
        ++side;
    return "grid" + std::to_string(side) + "x" + std::to_string(side);
}

} // namespace mirage::topology
