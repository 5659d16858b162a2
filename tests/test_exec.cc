/**
 * @file
 * Tests for the exec concurrency subsystem and the counter-based RNG
 * streams: pool sizing, exception propagation through parallelFor,
 * concurrent parallelFor callers sharing one pool, stream independence
 * (no shared prefixes, negligible cross-correlation), and the central
 * guarantee that routeWithTrials / transpile produce bit-identical
 * results for every thread count and with a shared external pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/generators.hh"
#include "circuit/consolidate.hh"
#include "common/exec.hh"
#include "common/rng.hh"
#include "mirage/pipeline.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

using namespace mirage;
using circuit::Circuit;
using circuit::Gate;
using topology::CouplingMap;

namespace {

/**
 * Bit-exact circuit comparison (doubles compared with ==, not near).
 * Circuit::bitIdentical is the authoritative check (shared with the
 * bench sweep and serve-bench); the field-by-field EXPECTs below exist
 * to localize a mismatch when it fails.
 */
void
expectIdenticalCircuits(const Circuit &a, const Circuit &b)
{
    EXPECT_TRUE(Circuit::bitIdentical(a, b));
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        EXPECT_EQ(int(ga.kind), int(gb.kind)) << "gate " << i;
        EXPECT_EQ(ga.qubits, gb.qubits) << "gate " << i;
        EXPECT_EQ(ga.params, gb.params) << "gate " << i;
        EXPECT_EQ(ga.mirrored, gb.mirrored) << "gate " << i;
        ASSERT_EQ(ga.mat4.has_value(), gb.mat4.has_value()) << "gate " << i;
        if (ga.mat4.has_value()) {
            for (size_t k = 0; k < 16; ++k)
                EXPECT_EQ(ga.mat4->a[k], gb.mat4->a[k])
                    << "gate " << i << " entry " << k;
        }
        ASSERT_EQ(ga.coords.has_value(), gb.coords.has_value())
            << "gate " << i;
        if (ga.coords.has_value()) {
            EXPECT_EQ(ga.coords->a, gb.coords->a) << "gate " << i;
            EXPECT_EQ(ga.coords->b, gb.coords->b) << "gate " << i;
            EXPECT_EQ(ga.coords->c, gb.coords->c) << "gate " << i;
        }
    }
}

void
expectIdenticalRouteResults(const router::RouteResult &a,
                            const router::RouteResult &b)
{
    expectIdenticalCircuits(a.routed, b.routed);
    EXPECT_TRUE(a.initial == b.initial);
    EXPECT_TRUE(a.final == b.final);
    EXPECT_EQ(a.swapsAdded, b.swapsAdded);
    EXPECT_EQ(a.mirrorsAccepted, b.mirrorsAccepted);
    EXPECT_EQ(a.mirrorCandidates, b.mirrorCandidates);
    EXPECT_EQ(a.estDepth, b.estDepth);         // bitwise, not NEAR
    EXPECT_EQ(a.estTotalCost, b.estTotalCost); // bitwise, not NEAR
}

router::TrialOptions
mirageTrialOptions(const monodromy::CostModel &cost, uint64_t seed)
{
    router::TrialOptions opts;
    opts.layoutTrials = 4;
    opts.swapTrials = 3;
    opts.forwardBackwardPasses = 2;
    opts.postSelect = router::PostSelect::Depth;
    opts.trialAggression = router::mirageAggressionMix(4);
    opts.pass.costModel = &cost;
    opts.seed = seed;
    return opts;
}

} // namespace

// --- thread pool lifecycle ---------------------------------------------------

TEST(Exec, ResolveThreads)
{
    EXPECT_GE(exec::resolveThreads(0), 1);
    EXPECT_EQ(exec::resolveThreads(1), 1);
    EXPECT_EQ(exec::resolveThreads(7), 7);
    EXPECT_EQ(exec::resolveThreads(exec::kMaxThreads), exec::kMaxThreads);
    EXPECT_EQ(exec::ThreadPool(3).numThreads(), 3);
    // Out of range throws before a pool starts any thread.
    EXPECT_THROW(exec::resolveThreads(-1), std::invalid_argument);
    EXPECT_THROW(exec::ThreadPool(exec::kMaxThreads + 1),
                 std::invalid_argument);
}

TEST(Exec, ParallelForCoversEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(257, [&](int64_t i) { ++hits[size_t(i)]; });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Exec, ConcurrentParallelForFromExternalThreadsCoversEachCall)
{
    // The serve engine transpiles each miss on its own connection
    // thread, so several non-worker threads drive one pool at once.
    exec::ThreadPool pool(2);
    constexpr int kCallers = 4;
    constexpr int64_t kN = 257;
    std::vector<std::atomic<int>> hits(size_t(kCallers * kN));
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
        callers.emplace_back([&pool, &hits, c] {
            pool.parallelFor(kN, [&hits, c](int64_t i) {
                ++hits[size_t(c * kN + i)];
            });
        });
    for (auto &t : callers)
        t.join();
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1)
            << "caller " << i / kN << " index " << i % kN;
}

TEST(Exec, NullPoolFallbackRunsInline)
{
    std::vector<int> order;
    exec::parallelFor(nullptr, 5, [&](int64_t i) {
        order.push_back(int(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Exec, ParallelForPropagatesFirstException)
{
    exec::ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](int64_t i) {
                             if (i == 13)
                                 throw std::runtime_error("boom");
                             ++ran;
                         }),
        std::runtime_error);
    // Cancellation means not every index ran, but the pool survives and
    // stays usable.
    std::atomic<int> again{0};
    pool.parallelFor(50, [&](int64_t) { ++again; });
    EXPECT_EQ(again.load(), 50);
}

TEST(Exec, ParallelForExceptionIsReleasedOnTheCallingThread)
{
    // The caller reads the rethrown exception while workers may still be
    // destroying their tasks. Under ThreadSanitizer this fails if a
    // worker can drop the last reference to the exception object the
    // caller is reading (the serve engine reads what() of a deadline
    // failure thrown inside a trial grid).
    exec::ThreadPool pool(4);
    for (int round = 0; round < 500; ++round) {
        try {
            pool.parallelFor(8, [](int64_t i) {
                if (i == 0)
                    throw std::runtime_error(
                        "parallelFor body failed with a heap-sized message");
            });
            ADD_FAILURE() << "round " << round << " did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()).rfind("parallelFor body", 0), 0u);
        }
    }
}

// --- counter-based RNG streams ----------------------------------------------

TEST(RngStreams, CounterBasedRandomAccess)
{
    StreamRng s(42, 7);
    std::vector<uint64_t> drawn;
    for (int i = 0; i < 16; ++i)
        drawn.push_back(s());
    EXPECT_EQ(s.counter(), 16u);
    // at() is pure random access (stateless), and a fresh stream with
    // the same key replays identically.
    StreamRng replay(42, 7);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(drawn[size_t(i)], s.at(uint64_t(i))) << "draw " << i;
        EXPECT_EQ(drawn[size_t(i)], replay.at(uint64_t(i)));
        EXPECT_EQ(drawn[size_t(i)], deriveSeed(42, 7, uint64_t(i)));
    }
}

TEST(RngStreams, DistinctStreamsShareNoPrefix)
{
    // Overlapping prefixes between trial streams would correlate trials
    // that are supposed to be independent. With 64-bit outputs, ANY
    // repeated value across the first 64 draws of 32 streams indicates a
    // structural flaw (collision probability ~2^-53).
    std::set<uint64_t> seen;
    const int streams = 32, draws = 64;
    for (int s = 0; s < streams; ++s) {
        StreamRng rng(0xFEED, uint64_t(s));
        for (int i = 0; i < draws; ++i)
            EXPECT_TRUE(seen.insert(rng()).second)
                << "stream " << s << " draw " << i << " repeats a value";
    }
    // Same check across different master seeds (seed changes must remap
    // every stream).
    for (int s = 0; s < streams; ++s) {
        StreamRng rng(0xFEED + 1, uint64_t(s));
        for (int i = 0; i < draws; ++i)
            EXPECT_TRUE(seen.insert(rng()).second)
                << "seed+1 stream " << s << " draw " << i;
    }
}

TEST(RngStreams, StreamsAreUncorrelated)
{
    // Pearson correlation between uniform [0,1) projections of adjacent
    // streams; for independent uniforms with n = 4096 the estimator's
    // std dev is ~1/sqrt(n) ~ 0.016, so |r| < 0.08 is a 5-sigma bound.
    const int n = 4096;
    auto uniforms = [&](uint64_t stream) {
        std::vector<double> v;
        StreamRng rng(0xABCD, stream);
        for (int i = 0; i < n; ++i)
            v.push_back(double(rng() >> 11) * 0x1.0p-53);
        return v;
    };
    auto corr = [&](const std::vector<double> &x,
                    const std::vector<double> &y) {
        double mx = 0, my = 0;
        for (int i = 0; i < n; ++i) {
            mx += x[size_t(i)];
            my += y[size_t(i)];
        }
        mx /= n;
        my /= n;
        double sxy = 0, sxx = 0, syy = 0;
        for (int i = 0; i < n; ++i) {
            double dx = x[size_t(i)] - mx, dy = y[size_t(i)] - my;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        return sxy / std::sqrt(sxx * syy);
    };
    auto s0 = uniforms(0);
    for (uint64_t s = 1; s <= 4; ++s) {
        double r = corr(s0, uniforms(s));
        EXPECT_LT(std::abs(r), 0.08) << "streams 0 and " << s;
    }
    // Basic uniformity of a single stream.
    double mean = 0;
    for (double v : s0)
        mean += v;
    mean /= n;
    EXPECT_NEAR(mean, 0.5, 0.02);
}

// --- thread-count invariance of the routing engine ---------------------------

TEST(Trials, ThreadCountInvariance)
{
    auto cost = monodromy::makeRootIswapCostModel(2);
    auto circ = circuit::consolidateBlocks(bench::qft(6, true));
    auto grid = CouplingMap::grid(3, 3);

    auto opts = mirageTrialOptions(cost, 2024);
    opts.threads = 1;
    router::RouteResult serial = router::routeWithTrials(circ, grid, opts);

    opts.threads = 4;
    router::RouteResult parallel =
        router::routeWithTrials(circ, grid, opts);
    expectIdenticalRouteResults(serial, parallel);

    // Repeat runs with the same thread count are stable too.
    router::RouteResult parallel2 =
        router::routeWithTrials(circ, grid, opts);
    expectIdenticalRouteResults(parallel, parallel2);

    // An externally owned pool (the serve path) changes nothing.
    exec::ThreadPool pool(3);
    opts.threads = 1;
    opts.pool = &pool;
    router::RouteResult pooled = router::routeWithTrials(circ, grid, opts);
    expectIdenticalRouteResults(serial, pooled);
}

TEST(Trials, ThreadCountInvarianceSwapPostSelect)
{
    // Same guarantee for the plain-SABRE flow (no cost model, SWAP
    // post-selection).
    auto circ = bench::qft(5, true);
    auto line = CouplingMap::line(5);
    router::TrialOptions opts;
    opts.layoutTrials = 3;
    opts.swapTrials = 4;
    opts.seed = 31337;

    opts.threads = 1;
    router::RouteResult serial = router::routeWithTrials(circ, line, opts);
    opts.threads = 4;
    router::RouteResult parallel =
        router::routeWithTrials(circ, line, opts);
    expectIdenticalRouteResults(serial, parallel);
}

TEST(SharedPool, TranspileLoopMatchesSoloSerial)
{
    // One external pool serving every circuit's trial grid in turn (the
    // serve shape) must reproduce solo serial transpile() calls.
    auto grid = CouplingMap::grid(3, 3);
    std::vector<Circuit> circuits;
    circuits.push_back(bench::qft(6, true));
    circuits.push_back(bench::ghz(7));
    circuits.push_back(bench::wstate(5));

    mirage_pass::TranspileOptions opts;
    opts.tryVf2 = false;
    opts.layoutTrials = 3;
    opts.swapTrials = 2;

    exec::ThreadPool pool(4);
    auto pooled_opts = opts;
    pooled_opts.pool = &pool;
    for (const auto &c : circuits) {
        auto pooled = mirage_pass::transpile(c, grid, pooled_opts);
        auto solo = mirage_pass::transpile(c, grid, opts);
        expectIdenticalCircuits(pooled.routed, solo.routed);
        EXPECT_TRUE(pooled.initial == solo.initial);
        EXPECT_TRUE(pooled.final == solo.final);
        EXPECT_EQ(pooled.swapsAdded, solo.swapsAdded);
        EXPECT_EQ(pooled.metrics.depth, solo.metrics.depth);
    }
}
