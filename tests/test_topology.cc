/**
 * @file
 * Tests for coupling maps, layouts, and the VF2 swap-free search.
 */

#include <gtest/gtest.h>

#include "bench_circuits/generators.hh"
#include "layout/layout.hh"
#include "layout/vf2.hh"
#include "topology/coupling.hh"

using namespace mirage;
using namespace mirage::topology;
using namespace mirage::layout;

TEST(Coupling, LineDistances)
{
    CouplingMap line = CouplingMap::line(5);
    EXPECT_EQ(line.numQubits(), 5);
    EXPECT_TRUE(line.isEdge(0, 1));
    EXPECT_FALSE(line.isEdge(0, 2));
    EXPECT_EQ(line.distance(0, 4), 4);
    EXPECT_TRUE(line.isConnected());
    EXPECT_EQ(line.maxDegree(), 2);
}

TEST(Coupling, RingWrapsAround)
{
    CouplingMap ring = CouplingMap::ring(6);
    EXPECT_EQ(ring.distance(0, 5), 1);
    EXPECT_EQ(ring.distance(0, 3), 3);
}

TEST(Coupling, GridStructure)
{
    CouplingMap grid = CouplingMap::grid(6, 6);
    EXPECT_EQ(grid.numQubits(), 36);
    EXPECT_EQ(grid.maxDegree(), 4);
    EXPECT_EQ(grid.distance(0, 35), 10);
    EXPECT_TRUE(grid.isConnected());
}

TEST(Coupling, HeavyHex57)
{
    CouplingMap hh = CouplingMap::heavyHex57();
    EXPECT_EQ(hh.numQubits(), 57);
    EXPECT_TRUE(hh.isConnected());
    // Heavy-hex keeps every degree at or below 3.
    EXPECT_LE(hh.maxDegree(), 3);
}

TEST(Coupling, ShortestPathIsValid)
{
    CouplingMap grid = CouplingMap::grid(4, 4);
    auto path = grid.shortestPath(0, 15);
    EXPECT_EQ(int(path.size()) - 1, grid.distance(0, 15));
    for (size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(grid.isEdge(path[i], path[i + 1]));
}

TEST(Coupling, FlatDistanceTableIsConsistent)
{
    // The flat row-major table behind distance()/distanceRow() must
    // agree with first principles: symmetric, zero on the diagonal,
    // exactly 1 across edges, and distanceRow(a)[b] == distance(a, b).
    for (const auto &cm :
         {CouplingMap::grid(3, 4), CouplingMap::heavyHex57(),
          CouplingMap::ring(7)}) {
        const int n = cm.numQubits();
        for (int a = 0; a < n; ++a) {
            const int *row = cm.distanceRow(a);
            EXPECT_EQ(row[a], 0);
            for (int b = 0; b < n; ++b) {
                EXPECT_EQ(row[b], cm.distance(a, b));
                EXPECT_EQ(cm.distance(a, b), cm.distance(b, a));
                EXPECT_EQ(cm.distance(a, b) == 1, cm.isEdge(a, b))
                    << cm.name() << " " << a << "," << b;
            }
        }
    }
}

TEST(Coupling, AdjacencyMatrixMatchesEdgeList)
{
    CouplingMap hex = CouplingMap::heavyHex57();
    int edge_count = 0;
    for (int a = 0; a < hex.numQubits(); ++a)
        for (int b = a + 1; b < hex.numQubits(); ++b)
            edge_count += hex.isEdge(a, b) ? 1 : 0;
    EXPECT_EQ(size_t(edge_count), hex.edges().size());
    for (const auto &[a, b] : hex.edges()) {
        EXPECT_TRUE(hex.isEdge(a, b));
        EXPECT_TRUE(hex.isEdge(b, a));
    }
}

TEST(Coupling, GeneratorsRejectDegenerateSizes)
{
    EXPECT_THROW(CouplingMap::line(0), TopologyError);
    EXPECT_THROW(CouplingMap::line(-3), TopologyError);
    EXPECT_THROW(CouplingMap::ring(0), TopologyError);
    EXPECT_THROW(CouplingMap::ring(-1), TopologyError);
    EXPECT_THROW(CouplingMap::grid(0, 5), TopologyError);
    EXPECT_THROW(CouplingMap::grid(3, 0), TopologyError);
    EXPECT_THROW(CouplingMap::grid(-2, -2), TopologyError);
    EXPECT_THROW(CouplingMap::allToAll(0), TopologyError);
    EXPECT_THROW(CouplingMap::heavyHex(0, 9), TopologyError);
    EXPECT_THROW(CouplingMap::heavyHex(5, -1), TopologyError);
    // Minimal valid sizes still build.
    EXPECT_EQ(CouplingMap::line(1).numQubits(), 1);
    EXPECT_EQ(CouplingMap::ring(2).numQubits(), 2);
    EXPECT_EQ(CouplingMap::grid(1, 1).numQubits(), 1);
}

TEST(Coupling, ParseSpecBoundsDeviceSize)
{
    // Oversized specs are refused before anything is allocated, and
    // digit strings beyond int64 neither overflow nor reach std::atoi.
    for (const char *spec :
         {"alltoall100000", "grid70000x70000", "line99999999999",
          "ring4097", "grid65x64", "alltoall363",
          "line99999999999999999999999999"})
        EXPECT_THROW(CouplingMap::parseSpec(spec, 1), std::invalid_argument)
            << spec;
    EXPECT_THROW(CouplingMap::parseSpec("auto", 4097), std::invalid_argument);
    // Both bounds are inclusive; every shipped device is well under.
    EXPECT_EQ(CouplingMap::parseSpec("line4096", 1).numQubits(), 4096);
    EXPECT_EQ(CouplingMap::parseSpec("grid64x64", 1).numQubits(), 4096);
    EXPECT_EQ(CouplingMap::parseSpec("auto", 4096).numQubits(), 4096);
    EXPECT_EQ(CouplingMap::parseSpec("alltoall362", 1).edges().size(),
              65341u);
    EXPECT_EQ(CouplingMap::parseSpec("heavyhex1121", 1).numQubits(), 1121);
}

TEST(Coupling, CustomConstructorRejectsBadEdges)
{
    using E = std::vector<std::pair<int, int>>;
    EXPECT_THROW(CouplingMap(-1, E{}), TopologyError);
    EXPECT_THROW(CouplingMap(3, E{{0, 3}}), TopologyError);  // out of range
    EXPECT_THROW(CouplingMap(3, E{{-1, 1}}), TopologyError); // out of range
    EXPECT_THROW(CouplingMap(3, E{{1, 1}}), TopologyError);  // self-loop
    // Duplicates are rejected even when written in opposite orders.
    EXPECT_THROW(CouplingMap(3, E{{0, 1}, {1, 0}}), TopologyError);
    EXPECT_THROW(CouplingMap(3, E{{0, 1}, {1, 2}, {0, 1}}), TopologyError);
    // A clean edge list still builds.
    EXPECT_EQ(CouplingMap(3, E{{0, 1}, {1, 2}}).numQubits(), 3);
}

TEST(Coupling, DisconnectedComponentsAreTracked)
{
    // Two components: {0,1} and {2,3,4}.
    CouplingMap cm(5, {{0, 1}, {2, 3}, {3, 4}}, "split");
    EXPECT_FALSE(cm.isConnected());
    EXPECT_EQ(cm.numComponents(), 2);
    EXPECT_TRUE(cm.sameComponent(0, 1));
    EXPECT_TRUE(cm.sameComponent(2, 4));
    EXPECT_FALSE(cm.sameComponent(1, 2));
    EXPECT_EQ(cm.distance(0, 2), -1);
    EXPECT_EQ(cm.distance(1, 4), -1);
    EXPECT_EQ(cm.distance(2, 4), 2);
    // An isolated qubit is its own component.
    CouplingMap iso(3, {{0, 1}}, "isolated");
    EXPECT_EQ(iso.numComponents(), 2);
    EXPECT_EQ(iso.componentOf(2), 1);
}

TEST(Coupling, ShortestPathThrowsAcrossComponents)
{
    // Regression: this used to spin forever walking -1 distances.
    CouplingMap cm(4, {{0, 1}, {2, 3}}, "split");
    EXPECT_THROW(cm.shortestPath(0, 2), TopologyError);
    EXPECT_THROW(cm.shortestPath(3, 1), TopologyError);
    EXPECT_THROW(cm.shortestPath(0, 7), TopologyError); // out of range
    // Within a component the path is still produced.
    auto path = cm.shortestPath(2, 3);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], 2);
    EXPECT_EQ(path[1], 3);
    // Trivial a == b path.
    EXPECT_EQ(cm.shortestPath(1, 1), std::vector<int>{1});
}

TEST(Coupling, LargeHeavyHexRegistry)
{
    // IBM Osprey/Condor-scale instances; both over the dense threshold,
    // so they build in sparse mode with no O(n^2) tables.
    CouplingMap osprey = CouplingMap::heavyHex433();
    EXPECT_EQ(osprey.numQubits(), 433);
    EXPECT_TRUE(osprey.isConnected());
    EXPECT_LE(osprey.maxDegree(), 3);
    EXPECT_TRUE(osprey.sparse());

    CouplingMap condor = CouplingMap::heavyHex1121();
    EXPECT_EQ(condor.numQubits(), 1121);
    EXPECT_TRUE(condor.isConnected());
    EXPECT_LE(condor.maxDegree(), 3);
    EXPECT_TRUE(condor.sparse());

    // Small maps stay dense; the threshold is the only mode switch.
    EXPECT_FALSE(CouplingMap::heavyHex57().sparse());
    EXPECT_TRUE(CouplingMap::grid(33, 33).sparse());
}

TEST(Coupling, SparseMemoryFootprintIsSubQuadratic)
{
    CouplingMap condor = CouplingMap::heavyHex1121();
    const size_t n = size_t(condor.numQubits());
    const size_t dense_equiv = n * n * (sizeof(int) + sizeof(uint8_t));
    // CSR + components: orders of magnitude below the flat
    // tables (the per-thread row cache is bounded separately).
    EXPECT_LT(condor.derivedTableBytes(), dense_equiv / 50);
}

TEST(Layout, SwapUpdatesBothMaps)
{
    Layout lay(4);
    lay.swapPhysical(0, 3);
    EXPECT_EQ(lay.toPhysical(0), 3);
    EXPECT_EQ(lay.toPhysical(3), 0);
    EXPECT_EQ(lay.toLogical(3), 0);
    EXPECT_EQ(lay.toLogical(0), 3);
    EXPECT_EQ(lay.toPhysical(1), 1);
}

TEST(Layout, RandomIsBijection)
{
    Rng rng(3);
    Layout lay = Layout::random(16, rng);
    std::vector<bool> seen(16, false);
    for (int l = 0; l < 16; ++l) {
        int p = lay.toPhysical(l);
        EXPECT_FALSE(seen[size_t(p)]);
        seen[size_t(p)] = true;
        EXPECT_EQ(lay.toLogical(p), l);
    }
}

TEST(Vf2, LineIntoGrid)
{
    // A 5-qubit GHZ chain embeds into a 3x3 grid without SWAPs.
    auto c = bench::ghz(5);
    auto grid = CouplingMap::grid(3, 3);
    auto found = findSwapFreeLayout(c, grid);
    ASSERT_TRUE(found.has_value());
    auto edges = interactionEdges(c);
    for (auto [a, b] : edges)
        EXPECT_TRUE(grid.isEdge(found->toPhysical(a), found->toPhysical(b)));
}

TEST(Vf2, RejectsImpossibleEmbedding)
{
    // A 5-qubit star (center degree 4) cannot embed into a line.
    circuit::Circuit star(5);
    for (int i = 1; i < 5; ++i)
        star.cx(0, i);
    EXPECT_FALSE(findSwapFreeLayout(star, CouplingMap::line(5)).has_value());
}

TEST(Vf2, FullGraphNeedsSwapsOnGrid)
{
    // TwoLocal full entanglement on 6 qubits cannot embed into a grid
    // (degree 5 > 4) -- this is why the paper's suite needs routing.
    auto c = bench::twoLocalFull(6);
    EXPECT_FALSE(
        findSwapFreeLayout(c, CouplingMap::grid(6, 6)).has_value());
}

TEST(Vf2, PaperSuiteNeedsRouting)
{
    // The paper selects benchmarks that require > 0 SWAPs on its
    // topologies (Section V). Spot-check a few on the 6x6 grid.
    auto grid = CouplingMap::grid(6, 6);
    for (const char *name :
         {"qft_n18", "portfolioqaoa_n16", "multiplier_n15"}) {
        auto circ = bench::benchmarkByName(name).make();
        EXPECT_FALSE(findSwapFreeLayout(circ, grid).has_value()) << name;
    }
}
