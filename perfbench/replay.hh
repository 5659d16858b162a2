/**
 * @file
 * Traced replay of the transpile pipeline.
 *
 * replayTranspile() calls each module's public entry point in the order
 * src/mirage/pipeline.cc does, builds router::TrialOptions exactly as
 * transpileImpl does, and records one span per module boundary. The
 * replayed circuits must serialize byte-identically to transpile() on
 * the same input (checks.hh compareOutputs), so the spans time the same
 * program the user runs.
 *
 * Spans stay in memory (Trace) and are written out once, at the end of
 * a run.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/consolidate.hh"
#include "common/json.hh"
#include "mirage/pipeline.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from `start` to `end`. */
double msBetween(Clock::time_point start, Clock::time_point end);
/** Milliseconds from `start` to now. */
double msSince(Clock::time_point start);

/** One timed interval at a module boundary. */
struct Span
{
    std::string name; ///< "<module>.<stage>", e.g. "router.route"
    double startMs = 0;
    double endMs = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at the root
    int64_t op = -1;  ///< op id shared by every span of one op
};

/** In-memory span recorder (single-threaded). */
class Trace
{
  public:
    Trace();

    /** Open a span under the innermost open span; returns its index. */
    int open(const std::string &name, int64_t op);
    /** Close the innermost open span, which must be `index`. */
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }
    double durationMs(int index) const
    {
        return spans_[size_t(index)].endMs - spans_[size_t(index)].startMs;
    }
    /** A span's duration minus the part its children cover. */
    double selfMs(int index) const;

    /** Spans as a Chrome trace-event document ("X" events, us). */
    mirage::json::Value toJson() const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Trace &trace, const std::string &name, int64_t op)
            : trace_(trace), index_(trace.open(name, op))
        {
        }
        ~Scope() { trace_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int index() const { return index_; }

      private:
        Trace &trace_;
        int index_;
    };

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Stage names replayTranspile records, in pipeline order. */
inline const std::vector<std::string> &
replayStages()
{
    static const std::vector<std::string> stages = {
        "monodromy.cost_model", "circuit.unroll",   "circuit.consolidate",
        "layout.vf2",           "router.route",     "mirage.metrics",
        "decomp.translate",
    };
    return stages;
}

/** What one replayed op produced and how long each stage took. */
struct ReplayRecord
{
    mirage::mirage_pass::TranspileResult result;
    /** The consolidated circuit routing started from. */
    mirage::circuit::Circuit consolidated;
    mirage::circuit::ConsolidateStats consolidate;
    bool vf2Ran = false;
    bool vf2Found = false;
    /** Index of the op's root span ("mirage.replay") in the trace. */
    int rootSpan = -1;
    /** Wall time of the whole traced op, spans included. */
    double wallMs = 0;
    /** Milliseconds per replayStages() entry (0 when it did not run). */
    std::vector<double> stageMs;

    double stageSumMs() const;
    double stage(const std::string &name) const;
};

/**
 * Run the pipeline stage by stage under spans. `opts` is used exactly as
 * transpile() would use it; when lowering, opts.equivalenceLibrary must
 * be set (the caller owns the library, as the CLI and serve do).
 */
ReplayRecord replayTranspile(const mirage::circuit::Circuit &input,
                             const mirage::topology::CouplingMap &coupling,
                             const mirage::mirage_pass::TranspileOptions &opts,
                             Trace &trace, int64_t op);

/**
 * The TrialOptions transpileImpl builds for `opts` (cost model and pool
 * filled in by the caller's arguments).
 */
mirage::router::TrialOptions
trialOptionsFor(const mirage::mirage_pass::TranspileOptions &opts,
                const mirage::monodromy::CostModel &cost_model);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
