/**
 * @file
 * The paper-reproduction experiment registry behind the `mirage sweep`,
 * `mirage report` and `mirage catalog` subcommands.
 *
 * Every reproducible figure/table of the paper (Figs. 3-6 and 8-13,
 * Tables I-III) is one named Experiment whose run() returns a
 * machine-readable JSON artifact: a versioned envelope (schemaVersion,
 * kind, experiment, title, paperRef) around resolved parameters, a
 * typed column list, data rows, and a summary. The CLI writes the
 * artifact to disk for CI archival/diffing; `mirage report` renders the
 * same artifact as a markdown table, so the sweep logic lives in
 * exactly one place.
 */

#ifndef MIRAGE_CLI_EXPERIMENTS_HH
#define MIRAGE_CLI_EXPERIMENTS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"

namespace mirage::decomp {
class EquivalenceLibrary;
}

namespace mirage::cli {

/** Version stamped into every artifact; bump on breaking layout. */
inline constexpr int kArtifactSchemaVersion = 1;
/** The `kind` tag of sweep artifacts. */
inline constexpr const char *kSweepArtifactKind = "mirage-sweep";

/**
 * Sweep knobs. -1 (or "" for cacheDir) means "use the experiment's own
 * default"; each experiment fills those slots in and records the
 * resolved values in the artifact's `parameters` object.
 */
struct SweepKnobs
{
    int seeds = -1;         ///< independent instances averaged
    int layoutTrials = -1;  ///< SABRE/MIRAGE layout trials
    int swapTrials = -1;    ///< routing repeats per layout
    int fwdBwd = -1;        ///< layout refinement rounds
    int threads = 1;        ///< trial-grid fan-out (0 = all cores)
    int mcIterations = -1;  ///< Monte-Carlo iterations (Table II)
    int suiteLimit = -1;    ///< first N suite entries / widths (-1 = all)
    std::string cacheDir;   ///< equivalence-library cache dir ("" = off)
    /**
     * Committed fit catalog: "" auto-discovers ./FIT_CATALOG.bin,
     * "none" disables, anything else is an explicit path. Lowering experiments (table3, mirror-*,
     * bench-lowering) warm-start their equivalence library from it.
     */
    std::string catalogPath;
};

/** One registered experiment. */
struct Experiment
{
    std::string name;     ///< registry key, e.g. "table3"
    std::string artifact; ///< paper artifact, e.g. "Table III"
    std::string title;    ///< human title for reports
    std::string paperRef; ///< the paper's reference numbers
    /** Runs the experiment; returns columns/rows/summary/parameters. */
    std::function<json::Value(const SweepKnobs &)> run;
};

/** All registered experiments, in paper order. */
const std::vector<Experiment> &experimentRegistry();

/**
 * Fit the full catalog target set -- every decomposition the table3 and
 * mirror-rb/mirror-qv sweeps lower at their default knobs (the same
 * workload definitions they run), plus the standard preseed gates --
 * into one equivalence library, cold (no catalog/cache load).
 * saveCache of the result IS the FIT_CATALOG.bin artifact; the build
 * is deterministic, so `mirage catalog check` can compare bytes
 * against the committed file.
 */
std::unique_ptr<decomp::EquivalenceLibrary>
buildCatalogLibrary(int threads);

/** Lookup by name; nullptr when unknown. */
const Experiment *findExperiment(const std::string &name);

/**
 * Run an experiment and wrap its result in the versioned artifact
 * envelope (schemaVersion/kind/experiment/title/paperRef + payload).
 */
json::Value runExperiment(const Experiment &e, const SweepKnobs &knobs);

/**
 * Check an artifact against the schema `mirage report` and CI rely on:
 * schemaVersion == kArtifactSchemaVersion, kind == "mirage-sweep", and
 * the required keys (experiment/title/parameters/columns/rows) with
 * well-formed columns ({key,label} objects) and object rows. On
 * failure returns false and sets *error.
 */
bool validateArtifact(const json::Value &artifact, std::string *error);

/**
 * Perf-trajectory gate for `mirage sweep --check`: compare a freshly
 * produced bench, bench-lowering or fig12-large artifact against a
 * checked-in baseline. Fails (and explains in *report) on any other
 * experiment, when the run parameters differ, a baseline circuit is
 * missing, or a deterministic work counter regressed -- wall times are
 * never compared, so the check is noise-free and runs on any machine.
 */
bool checkBenchCounters(const json::Value &current,
                        const json::Value &baseline, std::string *report);

/** Render an artifact as a GitHub-markdown section (table + summary). */
std::string renderMarkdown(const json::Value &artifact);

/** Render an artifact's rows as CSV (header = column keys). */
std::string renderCsv(const json::Value &artifact);

} // namespace mirage::cli

#endif // MIRAGE_CLI_EXPERIMENTS_HH
