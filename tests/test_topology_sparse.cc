/**
 * @file
 * Dense-vs-sparse coupling-map equivalence: the sparse mode (CSR
 * adjacency + BFS-on-demand rows behind a per-thread LRU cache) must
 * be query-for-query identical to the dense
 * flat tables, including on randomized and disconnected graphs; the
 * row cache must survive eviction churn and multi-row hot-path usage;
 * and routing on a sparse device must be bit-identical to routing on
 * its dense twin at any thread count (the concurrency label puts the
 * thread_local cache under the TSan job).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "bench_circuits/generators.hh"
#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

using namespace mirage;
using namespace mirage::topology;

namespace {

/** Every public query must agree between the two storage modes. */
void
expectEquivalent(const CouplingMap &dense, const CouplingMap &sparse)
{
    ASSERT_FALSE(dense.sparse());
    ASSERT_TRUE(sparse.sparse());
    const int n = dense.numQubits();
    ASSERT_EQ(sparse.numQubits(), n);
    EXPECT_EQ(sparse.edges(), dense.edges());
    EXPECT_EQ(sparse.numComponents(), dense.numComponents());
    EXPECT_EQ(sparse.isConnected(), dense.isConnected());
    EXPECT_EQ(sparse.maxDegree(), dense.maxDegree());
    for (int a = 0; a < n; ++a) {
        auto dn = dense.neighbors(a);
        auto sn = sparse.neighbors(a);
        ASSERT_EQ(sn.size(), dn.size()) << dense.name() << " q" << a;
        EXPECT_TRUE(std::equal(dn.begin(), dn.end(), sn.begin()));
        EXPECT_EQ(sparse.componentOf(a), dense.componentOf(a));

        const int *drow = dense.distanceRow(a);
        const int *srow = sparse.distanceRow(a);
        ASSERT_EQ(std::memcmp(drow, srow, size_t(n) * sizeof(int)), 0)
            << dense.name() << " row " << a;
        for (int b = 0; b < n; ++b) {
            EXPECT_EQ(sparse.distance(a, b), dense.distance(a, b));
            EXPECT_EQ(sparse.isEdge(a, b), dense.isEdge(a, b));
            if (dense.sameComponent(a, b)) {
                // Identical rows + identical neighbor order => the
                // reconstruction walks the exact same path.
                EXPECT_EQ(sparse.shortestPath(a, b),
                          dense.shortestPath(a, b));
            } else {
                EXPECT_THROW(sparse.shortestPath(a, b), TopologyError);
                EXPECT_THROW(dense.shortestPath(a, b), TopologyError);
            }
        }
    }
}

/** Random graph on n qubits; ~edge_frac of all pairs, deduplicated.
 * Not necessarily connected -- that's the point. */
CouplingMap
randomGraph(int n, double edge_frac, uint64_t seed)
{
    Rng rng(seed);
    std::set<std::pair<int, int>> picked;
    const int target = int(edge_frac * n * (n - 1) / 2);
    for (int i = 0; i < target; ++i) {
        int a = int(rng.index(uint64_t(n)));
        int b = int(rng.index(uint64_t(n)));
        if (a == b)
            continue;
        picked.insert({std::min(a, b), std::max(a, b)});
    }
    return CouplingMap(
        n, std::vector<std::pair<int, int>>(picked.begin(), picked.end()),
        "rand-" + std::to_string(seed));
}

} // namespace

TEST(SparseEquivalence, RegistryTopologies)
{
    for (const auto &cm :
         {CouplingMap::line(8), CouplingMap::ring(9), CouplingMap::grid(6, 6),
          CouplingMap::grid(4, 7), CouplingMap::heavyHex57(),
          CouplingMap::allToAll(6)}) {
        expectEquivalent(cm, cm.asSparse());
    }
}

TEST(SparseEquivalence, RandomizedGraphsIncludingDisconnected)
{
    // Property test over random graphs of varying density; sparse ones
    // are usually disconnected, so the -1 rows and the shortestPath
    // throw are exercised too.
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const int n = 10 + int(seed) * 3;
        const double frac = seed % 2 ? 0.04 : 0.15;
        auto dense = randomGraph(n, frac, seed);
        expectEquivalent(dense, dense.asSparse());
    }
}

TEST(SparseEquivalence, LargeDeviceSpotCheckAgainstReferenceBfs)
{
    // heavyhex-433 is too big for a dense twin; verify cached rows
    // against an independent BFS over the edge list.
    CouplingMap hh = CouplingMap::heavyHex433();
    const int n = hh.numQubits();
    std::vector<std::vector<int>> adj;
    adj.resize(size_t(n));
    for (auto [a, b] : hh.edges()) {
        adj[size_t(a)].push_back(b);
        adj[size_t(b)].push_back(a);
    }
    for (int src : {0, 7, 100, 210, 345, 432}) {
        std::vector<int> ref(size_t(n), -1);
        ref[size_t(src)] = 0;
        std::vector<int> queue = {src};
        for (size_t head = 0; head < queue.size(); ++head) {
            for (int v : adj[size_t(queue[head])]) {
                if (ref[size_t(v)] < 0) {
                    ref[size_t(v)] = ref[size_t(queue[head])] + 1;
                    queue.push_back(v);
                }
            }
        }
        const int *row = hh.distanceRow(src);
        for (int b = 0; b < n; ++b)
            ASSERT_EQ(row[b], ref[size_t(b)]) << src << "->" << b;
    }
}

namespace {

/** Hops between qubits a and b of a grid with `cols` columns. */
int
gridHops(int a, int b, int cols)
{
    return std::abs(a / cols - b / cols) + std::abs(a % cols - b % cols);
}

/** Row src of a 12x12 grid (more rows than the row cache holds) must
 * equal the Manhattan distances. */
void
expectGridRow(const int *row, int src)
{
    for (int b = 0; b < 144; ++b)
        ASSERT_EQ(row[b], gridHops(src, b, 12)) << src << "->" << b;
}

} // namespace

TEST(SparseRowCache, EvictionChurnStaysCorrect)
{
    CouplingMap::clearRowCache();
    CouplingMap sparse = CouplingMap::grid(12, 12);
    ASSERT_TRUE(sparse.sparse());
    const int n = sparse.numQubits();
    ASSERT_GT(size_t(n), CouplingMap::kRowCacheRows);
    // Cycle through more sources than the cache holds (a pure cyclic
    // scan is LRU's worst case -- every access misses), with a
    // recurring hot source mixed in so the hit path is exercised too;
    // every returned row must be right even just after an eviction.
    int cold = 0;
    for (int i = 0; i < 600; ++i) {
        const int src = (i % 3 == 0) ? 42 : (cold++ * 37) % n;
        expectGridRow(sparse.distanceRow(src), src);
    }
    const auto stats = CouplingMap::rowCacheStats();
    EXPECT_EQ(stats.rows, CouplingMap::kRowCacheRows);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.hits + stats.misses, 600u);
    EXPECT_EQ(stats.evictions, stats.misses - stats.rows);
    CouplingMap::clearRowCache();
}

TEST(SparseRowCache, TwoHeldRowsStayValid)
{
    CouplingMap::clearRowCache();
    // The router's deltaSums holds two row pointers simultaneously;
    // fetching the second row must never invalidate the first, even
    // when the cache is full and the second fetch evicts.
    CouplingMap sparse = CouplingMap::grid(12, 12);
    for (int src = 0; src < int(CouplingMap::kRowCacheRows); ++src)
        sparse.distanceRow(src);
    const int *row_a = sparse.distanceRow(3);
    const int *row_b = sparse.distanceRow(140);
    EXPECT_EQ(CouplingMap::rowCacheStats().evictions, 1u);
    expectGridRow(row_a, 3);
    expectGridRow(row_b, 140);
    CouplingMap::clearRowCache();
}

TEST(SparseRowCache, DistinctMapsDoNotAlias)
{
    // Two different sparse maps with overlapping qubit indices must not
    // serve each other's cached rows.
    CouplingMap a = CouplingMap::grid(5, 5).asSparse();
    CouplingMap b = CouplingMap::line(25).asSparse();
    EXPECT_EQ(a.distance(0, 24), 8);  // grid corner-to-corner
    EXPECT_EQ(b.distance(0, 24), 24); // line end-to-end
    EXPECT_EQ(a.distance(0, 24), 8);  // still the grid's row
    // A copy shares the topology id (identical edges => identical rows).
    CouplingMap a2 = a;
    EXPECT_EQ(a2.distance(0, 24), 8);
}

TEST(SparseRouting, BitIdenticalToDenseAtAnyThreadCount)
{
    // The whole point of the dense/sparse split: identical distances =>
    // identical SWAP decisions => bit-identical routed circuits. Run the
    // same trial grid on the dense map (serial) and the sparse twin
    // (serial and 4 threads); with threads=4 the per-thread row caches
    // are exercised concurrently, which the TSan job verifies race-free.
    auto circ = bench::qft(12, /*with_swaps=*/false);
    CouplingMap dense = CouplingMap::grid(6, 6);
    CouplingMap sparse = dense.asSparse();

    // Plain-SABRE trials (mirror decisions would need a cost model);
    // the distance hot path is identical either way.
    router::TrialOptions opts;
    opts.layoutTrials = 4;
    opts.swapTrials = 2;
    opts.threads = 1;

    auto ref = router::routeWithTrials(circ, dense, opts);
    auto sparse_serial = router::routeWithTrials(circ, sparse, opts);
    opts.threads = 4;
    auto sparse_parallel = router::routeWithTrials(circ, sparse, opts);

    EXPECT_TRUE(
        circuit::Circuit::bitIdentical(ref.routed, sparse_serial.routed));
    EXPECT_TRUE(
        circuit::Circuit::bitIdentical(ref.routed, sparse_parallel.routed));
    EXPECT_TRUE(ref.counters == sparse_serial.counters);
    EXPECT_TRUE(ref.counters == sparse_parallel.counters);
    EXPECT_EQ(ref.swapsAdded, sparse_serial.swapsAdded);
}

TEST(SparseRouting, DisconnectedTopologyFailsFastAtRouteEntry)
{
    // Regression for the -1 sentinel: routing used to feed -1 distances
    // straight into the heuristic's integer score sums.
    auto circ = bench::ghz(4);
    CouplingMap split(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}}, "split-2x3");
    router::TrialOptions opts;
    opts.layoutTrials = 1;
    opts.swapTrials = 1;
    EXPECT_THROW(router::routeWithTrials(circ, split, opts), TopologyError);
    router::PassOptions pass;
    layout::Layout trivial(6);
    EXPECT_THROW(router::routePass(circ, split, trivial, pass),
                 TopologyError);
    // The diagnostic names the map and the component count.
    try {
        router::routeWithTrials(circ, split, opts);
        FAIL() << "expected TopologyError";
    } catch (const TopologyError &e) {
        EXPECT_NE(std::string(e.what()).find("split-2x3"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("disconnected"),
                  std::string::npos);
    }
}
