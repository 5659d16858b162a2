/**
 * @file
 * Fit-catalog persistence suite: the contracts that make committing
 * FIT_CATALOG.bin safe.
 *
 * 1. Round-trip byte identity: saveCache -> loadCache -> saveCache
 *    reproduces the exact bytes, so `mirage catalog check` can gate CI
 *    on a binary compare instead of a semantic diff.
 * 2. Warm lowering: a library loaded from a catalog translates the
 *    same circuit with newFits == 0, fitEvaluations == 0, and
 *    bit-identical lowered QASM versus the cold fit -- at threads 1
 *    and 4 (the catalog must not perturb the thread-invariance
 *    guarantee).
 * 3. Rejection: truncated, corrupted, version-bumped, wrong-basis,
 *    hostile-token, oversized and unreadable catalogs are refused with
 *    a diagnostic and leave the library unchanged, and the
 *    unreadable-vs-malformed split of loadCacheFileDetailed is pinned
 *    so `mirage catalog check` and serve startup can report which
 *    failure happened.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_circuits/generators.hh"
#include "circuit/qasm.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

using namespace mirage;
using decomp::EquivalenceLibrary;
using Status = EquivalenceLibrary::CacheLoadStatus;

namespace {

/** The lowering config shared by every test in this file. */
mirage_pass::TranspileOptions
loweringOptions(int threads)
{
    mirage_pass::TranspileOptions opts;
    opts.rootDegree = 2;
    opts.flow = mirage_pass::Flow::MirageDepth;
    opts.tryVf2 = false;
    opts.lowerToBasis = true;
    opts.threads = threads;
    return opts;
}

/** A small input whose SU(4) blocks genuinely need numerical fits. */
const circuit::Circuit &
fixtureCircuit()
{
    static const circuit::Circuit c = bench::twoLocalFull(4);
    return c;
}

const topology::CouplingMap &
fixtureTopology()
{
    static const topology::CouplingMap topo =
        topology::CouplingMap::grid(2, 2);
    return topo;
}

/** Cold-fit the fixture once; every test reuses the same catalog. */
struct ColdFit
{
    std::string catalog;    ///< saveCache bytes of the cold library
    std::string loweredQasm;
    int newFits = 0;
};

const ColdFit &
coldFit()
{
    static const ColdFit fit = [] {
        EquivalenceLibrary lib(2);
        auto opts = loweringOptions(1);
        opts.equivalenceLibrary = &lib;
        auto res = mirage_pass::transpile(fixtureCircuit(),
                                          fixtureTopology(), opts);
        ColdFit f;
        std::ostringstream bytes;
        lib.saveCache(bytes);
        f.catalog = bytes.str();
        f.loweredQasm = circuit::toQasm(res.lowered);
        f.newFits = res.translateStats.newFits;
        return f;
    }();
    return fit;
}

/** Write `bytes` to a fresh file under the test temp dir. */
std::string
writeTempCatalog(const std::string &name, const std::string &bytes)
{
    const std::string path = ::testing::TempDir() +
                             std::to_string(::getpid()) + "-" + name;
    std::ofstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    f << bytes;
    return path;
}

TEST(FitCatalog, SaveLoadSaveIsByteIdentical)
{
    const ColdFit &cold = coldFit();
    ASSERT_GT(cold.newFits, 0) << "fixture must exercise real fits";
    ASSERT_FALSE(cold.catalog.empty());

    EquivalenceLibrary loaded(2, /*preseed=*/false);
    std::string error;
    ASSERT_TRUE(loaded.loadCache(cold.catalog, &error)) << error;

    std::ostringstream again;
    loaded.saveCache(again);
    EXPECT_EQ(cold.catalog, again.str());
}

TEST(FitCatalog, WarmLoweringIsFitFreeAndBitIdentical)
{
    const ColdFit &cold = coldFit();
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EquivalenceLibrary warm(2, /*preseed=*/false);
        ASSERT_TRUE(warm.loadCache(cold.catalog));

        auto opts = loweringOptions(threads);
        opts.equivalenceLibrary = &warm;
        auto res = mirage_pass::transpile(fixtureCircuit(),
                                          fixtureTopology(), opts);
        EXPECT_EQ(res.translateStats.newFits, 0);
        EXPECT_EQ(res.translateStats.fitEvaluations, 0u);
        EXPECT_EQ(circuit::toQasm(res.lowered), cold.loweredQasm);
    }
}

TEST(FitCatalog, TruncatedCatalogRejectedWithDiagnostic)
{
    const std::string &bytes = coldFit().catalog;
    // Cut mid-entry: parsing must fail without mutating the library.
    const std::string truncated = bytes.substr(0, bytes.size() * 3 / 5);
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::string error;
    EXPECT_FALSE(lib.loadCache(truncated, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(lib.cacheSize(), 0u)
        << "a rejected catalog must not leave partial entries behind";
}

TEST(FitCatalog, MissingEndMarkerRejected)
{
    std::string bytes = coldFit().catalog;
    const size_t end = bytes.rfind("end");
    ASSERT_NE(end, std::string::npos);
    bytes.resize(end);
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::string error;
    EXPECT_FALSE(lib.loadCache(bytes, &error));
    EXPECT_NE(error.find("missing end marker"), std::string::npos)
        << error;
}

TEST(FitCatalog, CorruptedEntryRejected)
{
    std::string bytes = coldFit().catalog;
    // Replace the first hexfloat with a non-numeric token.
    const size_t pos = bytes.find("0x");
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(pos, 2, "!!");
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::string error;
    EXPECT_FALSE(lib.loadCache(bytes, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(lib.cacheSize(), 0u);
}

TEST(FitCatalog, VersionBumpRejected)
{
    std::string bytes = coldFit().catalog;
    const std::string magic = "mirage-eqlib 1";
    const size_t pos = bytes.find(magic);
    ASSERT_EQ(pos, 0u);
    bytes[magic.size() - 1] = '2';
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::string error;
    EXPECT_FALSE(lib.loadCache(bytes, &error));
    EXPECT_NE(error.find("unsupported cache format version 2"),
              std::string::npos)
        << error;
}

TEST(FitCatalog, BasisMismatchRejected)
{
    EquivalenceLibrary lib(3, /*preseed=*/false);
    std::string error;
    EXPECT_FALSE(lib.loadCache(coldFit().catalog, &error));
    EXPECT_NE(error.find("basis mismatch"), std::string::npos) << error;
}

TEST(FitCatalog, DetailedLoadSplitsUnreadableFromMalformed)
{
    EquivalenceLibrary lib(2, /*preseed=*/false);

    // Unreadable: the file does not exist.
    const std::string missing = ::testing::TempDir() +
                                std::to_string(::getpid()) +
                                "-no-such-catalog.bin";
    auto unreadable = lib.loadCacheFileDetailed(missing);
    EXPECT_EQ(unreadable.status, Status::Unreadable);
    EXPECT_NE(unreadable.message.find("cannot open"), std::string::npos)
        << unreadable.message;

    // Malformed: the file exists but is not a catalog.
    const std::string garbage =
        writeTempCatalog("garbage-catalog.bin", "not a catalog\n");
    auto malformed = lib.loadCacheFileDetailed(garbage);
    EXPECT_EQ(malformed.status, Status::Malformed);
    EXPECT_NE(malformed.message.find(garbage), std::string::npos)
        << "malformed diagnostic must name the file: "
        << malformed.message;
    EXPECT_NE(malformed.message.find("bad magic"), std::string::npos)
        << malformed.message;

    // Unreadable: a directory opens but cannot be read.
    auto directory = lib.loadCacheFileDetailed(::testing::TempDir());
    EXPECT_EQ(directory.status, Status::Unreadable) << directory.message;
    EXPECT_NE(directory.message.find("cannot read"), std::string::npos)
        << directory.message;

    // Malformed: an endless file is cut off at the read cap, promptly,
    // instead of growing one token until memory runs out.
    const auto start = std::chrono::steady_clock::now();
    auto endless = lib.loadCacheFileDetailed("/dev/zero");
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    EXPECT_EQ(endless.status, Status::Malformed);
    EXPECT_NE(endless.message.find("larger than 64 MiB"), std::string::npos)
        << endless.message;
    EXPECT_EQ(lib.cacheSize(), 0u);

    // A good file round-trips through the same API.
    const std::string good =
        writeTempCatalog("good-catalog.bin", coldFit().catalog);
    auto ok = lib.loadCacheFileDetailed(good);
    EXPECT_EQ(ok.status, Status::Ok);
    EXPECT_TRUE(ok.message.empty());
    EXPECT_EQ(ok.entriesLoaded, lib.cacheSize());
    EXPECT_GT(ok.entriesLoaded, 0u);
}

/** A one-entry k=0 catalog whose first parameter is `param` and whose
 * first key cell is `cell`. */
std::string
oneEntryCatalog(const std::string &param, const std::string &cell = "0")
{
    std::string text = "mirage-eqlib 1 root 2 entries 1\nentry 0 0x1p+0 6\n" +
                       cell;
    for (int i = 1; i < 32; ++i)
        text += " 0";
    text += "\n" + param + " 0x1p+0 0x1p+0 0x1p+0 0x1p+0 0x1p+0\nend\n";
    return text;
}

TEST(FitCatalog, HostileTokensLeaveLibraryUnchanged)
{
    const std::string good = oneEntryCatalog("0x1.8p+0");
    const struct
    {
        const char *what;
        std::string text;
    } rejected[] = {
        {"leading +", oneEntryCatalog("+0x1p+0")},
        {"bare 0x", oneEntryCatalog("0x")},
        {"bare sign", oneEntryCatalog("-")},
        {"exponent without digits", oneEntryCatalog("0x1p")},
        {"nan", oneEntryCatalog("nan")},
        {"inf", oneEntryCatalog("inf")},
        {"overflowing hexfloat", oneEntryCatalog("0x1p+99999")},
        {"underflowing hexfloat", oneEntryCatalog("0x1p-99999")},
        {"second sign", oneEntryCatalog("-0x-1p+0")},
        {"key cell past int64", oneEntryCatalog("0x1p+0",
                                                "9223372036854775808")},
        {"embedded NUL", oneEntryCatalog(std::string("0x1p+0\0", 7))},
        {"cut mid-token, no final newline",
         good.substr(0, good.size() - 2)},
    };
    for (const auto &c : rejected) {
        EquivalenceLibrary lib(2, /*preseed=*/false);
        std::string error;
        EXPECT_FALSE(lib.loadCache(c.text, &error)) << c.what;
        EXPECT_FALSE(error.empty()) << c.what;
        EXPECT_EQ(lib.cacheSize(), 0u) << c.what;
    }

    // Accepted, each read back as the exact value its first parameter
    // saves as.
    std::string crlf;
    for (char ch : good)
        crlf += ch == '\n' ? std::string("\r\n") : std::string(1, ch);
    const struct
    {
        const char *what;
        std::string text;
        const char *saved;
    } accepted[] = {
        {"LF", good, "\n0x1.8p+0 "},
        {"CRLF", crlf, "\n0x1.8p+0 "},
        {"no newline after end", good.substr(0, good.size() - 1),
         "\n0x1.8p+0 "},
        {"decimal", oneEntryCatalog("0.5"), "\n0x1p-1 "},
        {"negative zero", oneEntryCatalog("-0x0p+0"), "\n-0x0p+0 "},
    };
    for (const auto &c : accepted) {
        EquivalenceLibrary lib(2, /*preseed=*/false);
        std::string error;
        ASSERT_TRUE(lib.loadCache(c.text, &error)) << c.what << ": " << error;
        std::ostringstream saved;
        lib.saveCache(saved);
        EXPECT_NE(saved.str().find(c.saved), std::string::npos)
            << c.what << ": " << saved.str();
    }
}

} // namespace
