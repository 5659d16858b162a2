/**
 * @file
 * Concurrency and cache-persistence tests for the basis-lowering stage.
 *
 * The equivalence library's contract is that sharing never changes
 * output: one library may serve a loop of transpile() calls and every
 * thread of the trial engine, and a cache saved from one
 * library and loaded into a fresh one must reproduce bit-identical
 * circuits with zero new fits. These tests pin all three properties --
 * thread-count invariance through the pipeline, raw concurrent
 * translate() on a shared library (the TSan target), and the
 * save/load round trip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "bench_circuits/generators.hh"
#include "circuit/circuit.hh"
#include "circuit/consolidate.hh"
#include "common/exec.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

using namespace mirage;
using circuit::Circuit;
using decomp::EquivalenceLibrary;
using decomp::TranslateStats;
using topology::CouplingMap;

namespace {

std::vector<Circuit>
smallBatch()
{
    return {bench::wstate(4), bench::qft(4, true), bench::ghz(4),
            bench::bernsteinVazirani(4, 2)};
}

/** transpile() each circuit in turn with the same options (and so the
 * same shared library and pool, when set). */
std::vector<mirage_pass::TranspileResult>
transpileEach(const std::vector<Circuit> &circuits,
              const CouplingMap &coupling,
              const mirage_pass::TranspileOptions &opts)
{
    std::vector<mirage_pass::TranspileResult> results;
    for (const auto &c : circuits)
        results.push_back(mirage_pass::transpile(c, coupling, opts));
    return results;
}

mirage_pass::TranspileOptions
loweringOptions(int threads)
{
    mirage_pass::TranspileOptions opts;
    opts.flow = mirage_pass::Flow::MirageDepth;
    opts.tryVf2 = false;
    opts.lowerToBasis = true;
    opts.threads = threads;
    return opts;
}

void
expectStatsEqual(const TranslateStats &a, const TranslateStats &b)
{
    EXPECT_EQ(a.blocksTranslated, b.blocksTranslated);
    EXPECT_EQ(a.totalPulses, b.totalPulses);
    EXPECT_EQ(a.worstInfidelity, b.worstInfidelity);
    EXPECT_EQ(a.rootInfidelitySum, b.rootInfidelitySum);
}

} // namespace

TEST(LoweringConcurrency, SharedLibraryBatchIsThreadCountInvariant)
{
    // One shared library per run; the lowered circuits must be
    // bit-identical between serial calls and calls sharing a 4-worker
    // pool.
    auto circuits = smallBatch();
    auto line = CouplingMap::line(4);

    EquivalenceLibrary lib1(2), lib4(2);
    exec::ThreadPool pool(4);
    auto opts1 = loweringOptions(1);
    opts1.equivalenceLibrary = &lib1;
    auto opts4 = loweringOptions(4);
    opts4.equivalenceLibrary = &lib4;
    opts4.pool = &pool;

    auto serial = transpileEach(circuits, line, opts1);
    auto parallel = transpileEach(circuits, line, opts4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(Circuit::bitIdentical(serial[i].routed,
                                          parallel[i].routed))
            << "circuit " << i;
        ASSERT_TRUE(serial[i].loweredToBasis);
        ASSERT_TRUE(parallel[i].loweredToBasis);
        EXPECT_TRUE(Circuit::bitIdentical(serial[i].lowered,
                                          parallel[i].lowered))
            << "circuit " << i;
        expectStatsEqual(serial[i].translateStats,
                         parallel[i].translateStats);
    }
}

TEST(LoweringConcurrency, SharedLibraryMatchesPrivateLibraries)
{
    // Calls sharing one library must produce the same circuits as
    // standalone transpile() calls that each build a private library:
    // cached fits are pure functions of the target unitary.
    auto circuits = smallBatch();
    auto line = CouplingMap::line(4);

    EquivalenceLibrary shared(2);
    auto shared_opts = loweringOptions(1);
    shared_opts.equivalenceLibrary = &shared;
    auto batch = transpileEach(circuits, line, shared_opts);

    auto private_opts = loweringOptions(1);
    for (size_t i = 0; i < circuits.size(); ++i) {
        auto solo = mirage_pass::transpile(circuits[i], line, private_opts);
        EXPECT_TRUE(Circuit::bitIdentical(batch[i].lowered, solo.lowered))
            << "circuit " << i;
        // Stats other than hit/fit attribution must agree too.
        EXPECT_EQ(batch[i].translateStats.totalPulses,
                  solo.translateStats.totalPulses);
        EXPECT_EQ(batch[i].translateStats.worstInfidelity,
                  solo.translateStats.worstInfidelity);
    }
}

TEST(LoweringConcurrency, ConcurrentTranslateOnSharedLibrary)
{
    // Hammer one shared library from a thread pool: concurrent lookups
    // of overlapping key sets, including concurrent first-touch fits of
    // the same unitary. Every result must equal the serial reference.
    // (This is the test the TSan job exists for.)
    std::vector<Circuit> circuits = {bench::qft(4, true),
                                     bench::wstate(4)};
    std::vector<Circuit> consolidated;
    for (const auto &c : circuits)
        consolidated.push_back(
            circuit::consolidateBlocks(mirage_pass::unrollThreeQubit(c)));

    // Serial references from a private library.
    std::vector<Circuit> reference;
    {
        EquivalenceLibrary ref_lib(2);
        for (const auto &c : consolidated)
            reference.push_back(ref_lib.translate(c));
    }

    EquivalenceLibrary shared(2, /*preseed=*/false);
    constexpr int kJobs = 8;
    std::vector<Circuit> results(kJobs);
    exec::ThreadPool pool(4);
    pool.parallelFor(kJobs, [&](int64_t j) {
        results[size_t(j)] =
            shared.translate(consolidated[size_t(j) % consolidated.size()]);
    });

    for (int j = 0; j < kJobs; ++j) {
        EXPECT_TRUE(Circuit::bitIdentical(
            results[size_t(j)],
            reference[size_t(j) % reference.size()]))
            << "job " << j;
    }
    // Concurrent duplicate fits may race benignly, but the cache must
    // deduplicate: the distinct-unitary count is what a serial run
    // would have fitted.
    EquivalenceLibrary serial(2, /*preseed=*/false);
    for (const auto &c : consolidated)
        (void)serial.translate(c);
    EXPECT_EQ(shared.cacheSize(), serial.cacheSize());
}

TEST(LoweringConcurrency, CacheRoundTripIsBitIdenticalWithZeroNewFits)
{
    auto circuits = smallBatch();
    auto line = CouplingMap::line(4);

    EquivalenceLibrary warm(2);
    auto opts = loweringOptions(1);
    opts.equivalenceLibrary = &warm;
    auto first = transpileEach(circuits, line, opts);

    std::stringstream cache;
    warm.saveCache(cache);

    // Fresh library, no preseed fits: everything must come from the
    // loaded cache.
    EquivalenceLibrary reloaded(2, /*preseed=*/false);
    ASSERT_TRUE(reloaded.loadCache(cache.str()));
    EXPECT_EQ(reloaded.cacheSize(), warm.cacheSize());

    uint64_t fits_before = reloaded.fitCount();
    auto opts2 = loweringOptions(1);
    opts2.equivalenceLibrary = &reloaded;
    auto second = transpileEach(circuits, line, opts2);
    EXPECT_EQ(reloaded.fitCount(), fits_before)
        << "warm-started library performed new fits";

    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(Circuit::bitIdentical(first[i].lowered,
                                          second[i].lowered))
            << "circuit " << i;
        EXPECT_EQ(second[i].translateStats.newFits, 0) << "circuit " << i;
        expectStatsEqual(first[i].translateStats,
                         second[i].translateStats);
    }
}

TEST(LoweringConcurrency, LoadCacheRejectsMismatchedBasisAndGarbage)
{
    EquivalenceLibrary root2(2);
    std::stringstream cache;
    root2.saveCache(cache);

    // Basis mismatch: a root-3 library must refuse a root-2 cache.
    EquivalenceLibrary root3(3, /*preseed=*/false);
    const std::string text = cache.str();
    EXPECT_FALSE(root3.loadCache(text));
    EXPECT_EQ(root3.cacheSize(), 0u);

    // Truncated text: library unchanged.
    EquivalenceLibrary fresh(2, /*preseed=*/false);
    EXPECT_FALSE(fresh.loadCache(text.substr(0, text.size() / 2)));
    EXPECT_EQ(fresh.cacheSize(), 0u);

    EXPECT_FALSE(fresh.loadCache("not a cache file at all"));
    EXPECT_EQ(fresh.cacheSize(), 0u);

    // Absurd pulse count: rejected by the sanity bound before the
    // parser allocates a matching params vector.
    const std::string huge("mirage-eqlib 1 root 2 entries 1\n"
                           "entry 100000000 0x0p+0 600000006\n");
    EXPECT_FALSE(fresh.loadCache(huge));
    EXPECT_EQ(fresh.cacheSize(), 0u);

    // Lying header count: must fail at the missing entries, not
    // attempt an enormous reserve.
    const std::string lying(
        "mirage-eqlib 1 root 2 entries 999999999999999999\nend\n");
    EXPECT_FALSE(fresh.loadCache(lying));
    EXPECT_EQ(fresh.cacheSize(), 0u);

    // Non-finite parameter (overflowing hexfloat): corruption, not data.
    const std::string inf_param("mirage-eqlib 1 root 2 entries 1\n"
                                "entry 0 0x1p+99999 6\n");
    EXPECT_FALSE(fresh.loadCache(inf_param));
    EXPECT_EQ(fresh.cacheSize(), 0u);

    // The intact text still loads.
    EXPECT_TRUE(fresh.loadCache(text));
    EXPECT_EQ(fresh.cacheSize(), root2.cacheSize());
}
