/**
 * @file
 * Session equivalence library and basis translation (paper Section V).
 *
 * The paper adds CNOT and SWAP -> sqrt(iSWAP) rules to Qiskit's session
 * equivalence library for final circuit output. Here the library caches
 * fitted decompositions keyed by quantized unitary, seeded with the
 * standard gates (CNOT, CNS, SWAP, iSWAP), and translate() lowers a
 * routed circuit -- including mirrored Unitary2Q blocks -- into
 * RootISWAP pulses plus single-qubit unitaries.
 *
 * One library instance is safe to share across threads and across any
 * number of transpile() calls: the cache is mutex-guarded, fits
 * run outside the lock, and every fit targets the quantization-cell
 * representative with randomness from a counter-based stream keyed by
 * the quantized target, so the cached decomposition is a pure function
 * of the quantized unitary -- identical no matter which thread fits it
 * first or in what order requests arrive. The cache is an ordered map
 * keyed by the quantized matrix itself, so two distinct cells can never
 * share an entry. saveCache/loadCache persist the fitted entries with
 * exact (hexfloat) parameters, so a warm-started process reproduces
 * bit-identical output with zero new fits.
 */

#ifndef MIRAGE_DECOMP_EQUIVALENCE_HH
#define MIRAGE_DECOMP_EQUIVALENCE_HH

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "circuit/circuit.hh"
#include "common/deadline.hh"
#include "decomp/numerical.hh"
#include "monodromy/cost_model.hh"

namespace mirage::decomp {

/** Statistics from one translation run. */
struct TranslateStats
{
    int blocksTranslated = 0;
    int cacheHits = 0;
    int newFits = 0;            ///< blocks that required a numerical fit
    /**
     * Objective evaluations spent on the fits behind newFits. Exactly 0
     * when every block was answered from a warm cache -- the number the
     * cold-start regression test and bench-lowering gate pin.
     */
    uint64_t fitEvaluations = 0;
    double worstInfidelity = 0; ///< max 1 - fidelity over all blocks
    /**
     * Sum of sqrt(1 - fidelity) over all blocks: an upper bound (up to
     * a small constant) on the operator-norm error of the lowered
     * circuit, used by the test oracle to budget its tolerance.
     */
    double rootInfidelitySum = 0;
    double totalPulses = 0;     ///< emitted RootISWAP count
};

/**
 * Cached decomposition database for one basis gate.
 */
class EquivalenceLibrary
{
  public:
    /**
     * Build for the n-th root of iSWAP. When `preseed` is true the
     * standard rules the paper installs (CNOT, CNS, SWAP, iSWAP) are
     * fitted up front; pass false when the cache will be warm-started
     * via loadCache.
     */
    explicit EquivalenceLibrary(int root_degree, bool preseed = true);

    int rootDegree() const { return rootDegree_; }

    /**
     * Decomposition of an arbitrary 2Q unitary into k basis pulses with
     * k taken from the monodromy cost model (cached by quantized
     * unitary; thread-safe). The reference stays valid for the life of
     * the library -- entries are never evicted.
     */
    const Decomposition &lookup(const linalg::Mat4 &u);

    /**
     * Lower every 2Q gate of a circuit into RootISWAP + Unitary1Q gates.
     * One-qubit gates pass through unchanged. Thread-safe; concurrent
     * callers share the cache. An active `deadline` is checked at every
     * block boundary and between fit rounds (throws DeadlineError); an
     * abandoned translation leaves the shared cache consistent -- any
     * entries fitted before the cutoff stay valid.
     */
    circuit::Circuit translate(const circuit::Circuit &input,
                               TranslateStats *stats = nullptr,
                               const Deadline &deadline = {});

    // --- cache persistence -------------------------------------------------
    // Fitting dominates translation cost, so fitted entries can be
    // saved and re-loaded across processes. The format is a versioned
    // text stream with hexfloat parameters: a reloaded library produces
    // bit-identical circuits and performs zero new fits on inputs the
    // saved library had seen.

    /** Write every cached entry (deterministic order). */
    void saveCache(std::ostream &out) const;
    /**
     * Merge a saved cache (the whole file's text) into this library.
     * Returns false (library unchanged) on version/basis mismatch or
     * malformed text; when `error` is non-null it receives a one-line
     * diagnostic saying what was wrong (bad magic, version/root
     * mismatch, truncated entry...).
     */
    bool loadCache(std::string_view text, std::string *error = nullptr);
    /** saveCache to a file; returns false if the file cannot be written. */
    bool saveCacheFile(const std::string &path) const;

    /**
     * Why a cache file failed to load. `Unreadable` (missing file,
     * permissions) and `Malformed` (parse/version failure) are distinct
     * outcomes: a deployment can ignore the former (cold start) but
     * should surface the latter (a corrupt or stale artifact).
     */
    enum class CacheLoadStatus
    {
        Ok,
        Unreadable,
        Malformed,
    };

    /** Result of loadCacheFileDetailed. */
    struct CacheLoadResult
    {
        CacheLoadStatus status = CacheLoadStatus::Ok;
        std::string message;   ///< human-readable diagnostic when not Ok
        size_t entriesLoaded = 0; ///< entries merged on success
    };

    /**
     * loadCache from a file, with the unreadable/malformed outcomes
     * split and a diagnostic message. The file is read into one buffer
     * (freed on return) with a single bounded read: past 64 MiB it is
     * Malformed, and an OS read error (say, on a directory) is
     * Unreadable.
     */
    CacheLoadResult loadCacheFileDetailed(const std::string &path);

    // --- introspection -----------------------------------------------------

    /** Cached decompositions. */
    size_t cacheSize() const;
    /** Numerical fits performed since construction (includes preseed). */
    uint64_t fitCount() const;
    /** Lookups answered from the cache. */
    uint64_t hitCount() const;
    /**
     * Total objective evaluations spent by fits since construction
     * (includes preseed; excludes entries merged via loadCache, which
     * cost no evaluations).
     */
    uint64_t fitEvaluations() const;
    /** Cached-entry count per pulse count k (for `mirage catalog stats`). */
    std::map<int, size_t> kHistogram() const;

  private:
    const Decomposition &lookupEntry(const linalg::Mat4 &u, bool *fitted,
                                     const Deadline &deadline = {});
    Decomposition fitFor(const linalg::Mat4 &u,
                         const linalg::QuantizedMat &qm,
                         const Deadline &deadline) const;

    int rootDegree_;
    linalg::Mat4 basisMatrix_;
    monodromy::CostModel costModel_;

    mutable std::mutex mutex_; ///< guards cache_ and the counters below
    /** Node-based, so lookup() references stay valid across inserts. */
    std::map<linalg::QuantizedMat, Decomposition> cache_;
    uint64_t fits_ = 0;
    uint64_t hits_ = 0;
    uint64_t fitEvaluations_ = 0;
};

} // namespace mirage::decomp

#endif // MIRAGE_DECOMP_EQUIVALENCE_HH
