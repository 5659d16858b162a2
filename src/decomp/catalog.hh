/**
 * @file
 * How an equivalence library is warm-started: the committed fit
 * catalog and the `--cache DIR` directory.
 *
 * FIT_CATALOG.bin at the repository root is an EquivalenceLibrary cache
 * (saveCache format, hexfloat text) holding every decomposition the
 * Table III + mirror-workload target set needs, so a fresh clone lowers
 * warm out of the box -- zero new fits, bit-identical output. The
 * artifact is regenerated by `mirage catalog build` and CI fails on any
 * byte drift (`mirage catalog check`), which is what makes committing
 * numerical fits safe: the file is a pure function of the target set
 * and the (deterministic, FMA-free) fit pipeline.
 *
 * This module is the one place that decides how a library starts:
 *  1. resolve the catalog knob (resolveCatalogPath);
 *  2. consult the catalog only for the basis it was fitted for
 *     (kCatalogRootDegree);
 *  3. skip the gate preseed when it loads (the catalog already holds
 *     those fits), else fall back to a preseeded library;
 *  4. merge the library's per-root cache file from `--cache DIR`;
 *  5. save the library back to DIR, creating it.
 * Callers only report what the returned diagnostics say. Building the
 * catalog's target set lives in cli/experiments.cc (it needs the
 * benchmark circuits).
 */

#ifndef MIRAGE_DECOMP_CATALOG_HH
#define MIRAGE_DECOMP_CATALOG_HH

#include <memory>
#include <string>

#include "decomp/equivalence.hh"

namespace mirage::decomp {

/** File name of the committed catalog at the repository root. */
inline constexpr const char *kCatalogFileName = "FIT_CATALOG.bin";

/** Knob value that explicitly disables catalog loading. */
inline constexpr const char *kCatalogDisabled = "none";

/** The basis the committed catalog is fitted for: sqrt(iSWAP). */
inline constexpr int kCatalogRootDegree = 2;

/**
 * Resolve the catalog path from a user knob:
 *  - knob == "none"          -> "" (disabled)
 *  - knob nonempty           -> knob verbatim (even if missing, so a
 *                               typo surfaces as Unreadable, not a
 *                               silent cold start)
 *  - knob empty (auto)       -> ./FIT_CATALOG.bin when that file
 *                               exists, else "" (cold start).
 */
std::string resolveCatalogPath(const std::string &knob = "");

/** A load status as reports and logs name it: ok, unreadable, malformed. */
const char *loadStatusName(EquivalenceLibrary::CacheLoadStatus status);

/** What a catalog lookup did. */
struct CatalogLoad
{
    /** Resolved catalog path; "" when none was consulted. */
    std::string path;
    /** Outcome of the load (Ok when nothing was consulted). */
    EquivalenceLibrary::CacheLoadResult result;

    bool loaded() const
    {
        return !path.empty() &&
               result.status == EquivalenceLibrary::CacheLoadStatus::Ok;
    }
};

/**
 * The catalog named by `knob` as an unpreseeded `root_degree` library,
 * or nullptr when it is disabled, not found, fitted for another root
 * (never consulted then: `load->path` stays empty) or fails to load.
 */
std::unique_ptr<EquivalenceLibrary>
loadCatalog(int root_degree, const std::string &knob, CatalogLoad *load);

/**
 * Merge DIR's cache file for `lib`'s root into `lib` (no-op for an
 * empty `dir`). A missing or unreadable file is a first run and stays
 * silent; a malformed one is skipped and described by the returned
 * one-line warning ("" otherwise).
 */
std::string mergeCacheDir(EquivalenceLibrary &lib, const std::string &dir);

/** What openLibrary did, for the caller to report. */
struct LibraryReport
{
    CatalogLoad catalog;
    std::string cacheWarning; ///< mergeCacheDir's warning ("" = none)
};

/**
 * The warm-start decision in full: the catalog when it loads for this
 * root, else a preseeded library; then DIR's cache file merged in.
 * Pass kCatalogDisabled as `knob` for a catalog-free library.
 */
std::unique_ptr<EquivalenceLibrary>
openLibrary(int root_degree, const std::string &knob,
            const std::string &dir, LibraryReport *report);

/**
 * Save `lib` to its per-root cache file in DIR, creating DIR (no-op
 * for an empty `dir`). Returns "cannot write cache '<file>'" on
 * failure, "" on success.
 */
std::string saveLibrary(const EquivalenceLibrary &lib,
                        const std::string &dir);

} // namespace mirage::decomp

#endif // MIRAGE_DECOMP_CATALOG_HH
