/**
 * @file
 * Session equivalence library: seeded standard-gate rules, fitted
 * decompositions in an ordered map keyed by quantized unitary behind a
 * mutex (fits run outside the lock from per-target deterministic
 * seeds), hexfloat cache persistence, and translate() lowering to the
 * root-iSWAP basis.
 */

#include "decomp/equivalence.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "decomp/ansatz.hh"
#include "weyl/catalog.hh"

namespace mirage::decomp {

using circuit::Circuit;
using circuit::Gate;
using linalg::Mat4;
using linalg::QuantizedMat;

namespace {

/** Cache file format version (bump on any layout change). */
constexpr int kCacheFormatVersion = 1;

/** Fit-stream domain separator for deriveSeed. */
constexpr uint64_t kFitSeedDomain = 0xE91F17ULL;

/** Accept a fit at the cost-model depth once it reaches this. */
constexpr double kAcceptInfidelity = 1e-9;
/** Escalate to k+1 only while the best k-fit is worse than this. */
constexpr double kRetryInfidelity = 1e-7;
/** Independent restart rounds at the cost-model depth k. */
constexpr int kMaxFitRounds = 3;
/** Independent restart rounds at k+1 for optimizer misses. */
constexpr int kMaxRetryRounds = 3;

/** Largest credible pulse count in a cache entry (sanity bound). */
constexpr int kMaxCachedK = 64;

} // namespace

EquivalenceLibrary::EquivalenceLibrary(int root_degree, bool preseed)
    : rootDegree_(root_degree),
      basisMatrix_(weyl::gateRootISWAP(root_degree)),
      costModel_(monodromy::coverageForRootIswap(root_degree))
{
    if (!preseed)
        return;
    // Pre-seed the standard rules the paper installs: CNOT, its mirror
    // CNS, SWAP, and iSWAP.
    (void)lookup(weyl::gateCX());
    (void)lookup(weyl::gateCNS());
    (void)lookup(weyl::gateSWAP());
    (void)lookup(weyl::gateISWAP());
}

Decomposition
EquivalenceLibrary::fitFor(const Mat4 &u, const QuantizedMat &qm,
                           const Deadline &deadline) const
{
    // Chaos hook: a fit that "never converges" is modelled as a throw
    // before any expensive work, so chaos runs exercise the error path
    // without paying for real optimization.
    fault::maybeThrow("fit.converge");
    // The cost model gives the exact pulse count; fit the ansatz at
    // that depth. All randomness is keyed by the quantized target, so
    // the result does not depend on which thread fits first or on any
    // previous lookup -- the precondition for the thread-count and
    // warm-cache bit-identical guarantees.
    weyl::Coord coords = weyl::weylCoordinates(u);
    int k = costModel_.kFor(coords);
    uint64_t fit_seed = linalg::hashQuantized(qm, kFitSeedDomain);

    FitOptions opts;
    opts.restarts = 4;
    opts.adamIterations = 350;
    opts.targetInfidelity = 1e-11;

    // `total` charges every round's evaluations to the returned fit,
    // including discarded restarts: the counter measures work done.
    Decomposition best;
    best.fidelity = -1;
    uint64_t total = 0;
    for (int round = 0; round < kMaxFitRounds; ++round) {
        deadline.check("fit.round");
        Rng rng(deriveSeed(fit_seed, uint64_t(round)));
        Decomposition d = decomposeViaCanonical(u, basisMatrix_, k, rng, opts);
        total += d.evaluations;
        if (d.fidelity > best.fidelity)
            best = d;
        if (1.0 - best.fidelity < kAcceptInfidelity) {
            best.evaluations = total;
            return best;
        }
    }
    // Optimizer-miss guard: allow one extra pulse when the polytope
    // depth could not be reached numerically. Only hard blocks pay for
    // these extra rounds.
    for (int round = 0; round < kMaxRetryRounds; ++round) {
        if (1.0 - best.fidelity <= kRetryInfidelity)
            break;
        deadline.check("fit.retryRound");
        Rng rng(deriveSeed(fit_seed, 0x100 + uint64_t(round)));
        Decomposition retry =
            decomposeViaCanonical(u, basisMatrix_, k + 1, rng, opts);
        total += retry.evaluations;
        if (retry.fidelity > best.fidelity)
            best = retry;
    }
    best.evaluations = total;
    return best;
}

const Decomposition &
EquivalenceLibrary::lookupEntry(const Mat4 &u, bool *fitted,
                                const Deadline &deadline)
{
    const QuantizedMat qm = linalg::quantize(u);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (auto it = cache_.find(qm); it != cache_.end()) {
            ++hits_;
            *fitted = false;
            return it->second;
        }
    }

    // Fit outside the lock, against the quantization-cell
    // representative: two unitaries in one cell share an entry, so the
    // fit must be a function of the cell alone, whichever arrives first
    // (the representative is within 1e-9 per entry, far below the 1e-6
    // infidelity bar). Deterministic per cell, so a concurrent fit of
    // the same unitary produces the same entry.
    Decomposition d = fitFor(linalg::dequantize(qm), qm, deadline);

    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cache_.try_emplace(qm);
    if (!inserted) {
        // Another thread inserted while we fitted; its result is
        // bit-identical, keep it.
        ++hits_;
        *fitted = false;
        return it->second;
    }
    ++fits_;
    fitEvaluations_ += d.evaluations;
    *fitted = true;
    it->second = std::move(d);
    return it->second;
}

const Decomposition &
EquivalenceLibrary::lookup(const Mat4 &u)
{
    bool fitted = false;
    return lookupEntry(u, &fitted);
}

Circuit
EquivalenceLibrary::translate(const Circuit &input, TranslateStats *stats,
                              const Deadline &deadline)
{
    Circuit out(input.numQubits(), input.name() + "_basis");
    TranslateStats local;
    for (const auto &g : input.gates()) {
        if (g.isBarrier() || g.isOneQubit()) {
            out.append(g);
            continue;
        }
        MIRAGE_ASSERT(g.isTwoQubit(),
                      "translate requires <= 2Q gates (unroll first)");
        deadline.check("lower.block");
        bool fitted = false;
        const Decomposition &d = lookupEntry(g.matrix4(), &fitted, deadline);
        if (fitted) {
            ++local.newFits;
            local.fitEvaluations += d.evaluations;
        } else {
            ++local.cacheHits;
        }
        appendDecomposition(out, d, rootDegree_, g.qubits[0], g.qubits[1]);
        ++local.blocksTranslated;
        double infidelity = std::max(0.0, 1.0 - d.fidelity);
        local.worstInfidelity = std::max(local.worstInfidelity, infidelity);
        local.rootInfidelitySum += std::sqrt(infidelity);
        local.totalPulses += d.k;
    }
    if (stats)
        *stats = local;
    return out;
}

size_t
EquivalenceLibrary::cacheSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

uint64_t
EquivalenceLibrary::fitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fits_;
}

uint64_t
EquivalenceLibrary::hitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

uint64_t
EquivalenceLibrary::fitEvaluations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fitEvaluations_;
}

std::map<int, size_t>
EquivalenceLibrary::kHistogram() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<int, size_t> hist;
    for (const auto &[qm, d] : cache_)
        ++hist[d.k];
    return hist;
}

void
EquivalenceLibrary::saveCache(std::ostream &out) const
{
    // The map's order (quantized matrix, lexicographic) makes the file
    // independent of insertion order.
    std::lock_guard<std::mutex> lock(mutex_);
    out << "mirage-eqlib " << kCacheFormatVersion << " root " << rootDegree_
        << " entries " << cache_.size() << "\n";
    for (const auto &[qm, d] : cache_) {
        out << "entry " << d.k << " " << serial::encodeDouble(d.fidelity)
            << " " << d.params.size() << "\n";
        for (size_t i = 0; i < qm.size(); ++i)
            out << qm[i] << (i + 1 < qm.size() ? ' ' : '\n');
        for (size_t i = 0; i < d.params.size(); ++i)
            out << serial::encodeDouble(d.params[i])
                << (i + 1 < d.params.size() ? ' ' : '\n');
    }
    out << "end\n";
}

bool
EquivalenceLibrary::loadCache(std::string_view text, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    serial::Cursor r(text);
    r.expect("mirage-eqlib");
    if (!r.ok())
        return fail("not a mirage-eqlib cache (bad magic)");
    int64_t version = r.i64();
    if (version != kCacheFormatVersion)
        return fail("unsupported cache format version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kCacheFormatVersion) + ")");
    r.expect("root");
    int64_t root = r.i64();
    if (!r.ok())
        return fail("malformed header (missing root degree)");
    if (root != rootDegree_)
        return fail("basis mismatch: cache is for root degree " +
                    std::to_string(root) + ", library expects " +
                    std::to_string(rootDegree_));
    r.expect("entries");
    int64_t count = r.i64();
    if (!r.ok() || count < 0)
        return fail("malformed header (bad entry count)");

    // Parse everything before touching the cache so a malformed stream
    // leaves the library unchanged. The header count is untrusted:
    // clamp the reserve (a lying count then just fails at the first
    // missing entry instead of attempting a huge allocation).
    std::vector<std::pair<QuantizedMat, Decomposition>> loaded;
    loaded.reserve(size_t(std::min<int64_t>(count, 4096)));
    for (int64_t i = 0; i < count; ++i) {
        r.expect("entry");
        auto &[qm, d] = loaded.emplace_back();
        int64_t k = r.i64();
        d.fidelity = r.f64();
        int64_t nparams = r.i64();
        // Bound k before any allocation: a corrupt/crafted file must
        // fail cleanly, not via a multi-gigabyte resize or int
        // overflow in ansatzParamCount.
        if (!r.ok() || k < 0 || k > kMaxCachedK ||
            nparams != ansatzParamCount(int(k)))
            return fail("malformed entry " + std::to_string(i) +
                        " (bad k or parameter count)");
        d.k = int(k);
        for (auto &q : qm)
            q = r.i64();
        d.params.resize(size_t(nparams));
        for (auto &p : d.params)
            p = r.f64();
        if (!r.ok())
            return fail("truncated or corrupt entry " + std::to_string(i) +
                        " of " + std::to_string(count));
    }
    r.expect("end");
    if (!r.ok())
        return fail("missing end marker (truncated file)");

    std::lock_guard<std::mutex> lock(mutex_);
    // An entry already fitted locally is identical by construction.
    for (auto &[qm, d] : loaded)
        cache_.try_emplace(qm, std::move(d));
    return true;
}

bool
EquivalenceLibrary::saveCacheFile(const std::string &path) const
{
    if (fault::shouldFail("cache.save"))
        return false;
    // Serialize in memory, then publish with temp + fsync + rename: a
    // kill at any instant leaves the old file or the new one, never a
    // torn prefix (pinned by the chaos suite's kill-mid-save test).
    std::ostringstream out;
    saveCache(out);
    if (!out)
        return false;
    return writeFileAtomic(path, out.str());
}

EquivalenceLibrary::CacheLoadResult
EquivalenceLibrary::loadCacheFileDetailed(const std::string &path)
{
    CacheLoadResult result;
    auto fail = [&](CacheLoadStatus status, const std::string &message) {
        result.status = status;
        result.message = message;
        return result;
    };
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return fail(CacheLoadStatus::Unreadable,
                    "cannot open '" + path + "' for reading");
    std::string text;
    const int err = readAll(fd, text);
    ::close(fd);
    if (err == EFBIG)
        return fail(CacheLoadStatus::Malformed,
                    "'" + path + "': larger than 64 MiB (not a cache)");
    if (err != 0)
        return fail(CacheLoadStatus::Unreadable, "cannot read '" + path +
                                                     "': " +
                                                     std::strerror(err));
    // Chaos hook: a readable-but-corrupt cache, reported exactly like a
    // real parse failure so callers exercise their degrade paths.
    if (fault::shouldFail("catalog.load"))
        return fail(CacheLoadStatus::Malformed,
                    "'" + path + "': injected fault (catalog.load)");
    size_t before = cacheSize();
    std::string error;
    if (!loadCache(text, &error))
        return fail(CacheLoadStatus::Malformed, "'" + path + "': " + error);
    result.entriesLoaded = cacheSize() - before;
    return result;
}

} // namespace mirage::decomp
