/**
 * @file
 * Span recorder and the stage-by-stage pipeline replay.
 */

#include "replay.hh"

#include <optional>
#include <stdexcept>

#include "layout/vf2.hh"

namespace perfbench {

namespace mp = mirage::mirage_pass;
using mirage::circuit::Circuit;

double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

Trace::Trace() : origin_(Clock::now()) {}

int
Trace::open(const std::string &name, int64_t op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startMs = msSince(origin_);
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
}

void
Trace::close(int index)
{
    // Scopes nest, so the innermost open span is always `index`.
    spans_[size_t(index)].endMs = msSince(origin_);
    stack_.pop_back();
}

double
Trace::selfMs(int index) const
{
    double self = durationMs(index);
    for (size_t i = size_t(index) + 1; i < spans_.size(); ++i)
        if (spans_[i].parent == index)
            self -= durationMs(int(i));
    return self;
}

mirage::json::Value
Trace::toJson() const
{
    mirage::json::Value events = mirage::json::Value::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        mirage::json::Value e = mirage::json::Value::object();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("ts", s.startMs * 1000.0);
        e.set("dur", (s.endMs - s.startMs) * 1000.0);
        e.set("pid", 1);
        e.set("tid", 1);
        mirage::json::Value args = mirage::json::Value::object();
        args.set("id", int64_t(i));
        args.set("parent", s.parent);
        args.set("op", s.op);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    mirage::json::Value doc = mirage::json::Value::object();
    doc.set("traceEvents", std::move(events));
    return doc;
}

double
ReplayRecord::stageSumMs() const
{
    double sum = 0;
    for (double ms : stageMs)
        sum += ms;
    return sum;
}

double
ReplayRecord::stage(const std::string &name) const
{
    const auto &names = replayStages();
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return stageMs[i];
    throw std::invalid_argument("unknown replay stage " + name);
}

mirage::router::TrialOptions
trialOptionsFor(const mp::TranspileOptions &opts,
                const mirage::monodromy::CostModel &cost_model)
{
    // Mirrors transpileImpl step 3 field for field.
    mirage::router::TrialOptions topts;
    topts.layoutTrials = opts.layoutTrials;
    topts.forwardBackwardPasses = opts.forwardBackwardPasses;
    topts.swapTrials = opts.swapTrials;
    topts.seed = opts.seed;
    topts.threads = opts.threads;
    topts.pool = opts.pool;
    topts.pass.costModel = &cost_model;
    topts.pass.deadline = opts.deadline;
    switch (opts.flow) {
      case mp::Flow::SabreBaseline:
        topts.postSelect = mirage::router::PostSelect::Swaps;
        topts.trialAggression = {mirage::router::Aggression::None};
        break;
      case mp::Flow::MirageSwaps:
        topts.postSelect = mirage::router::PostSelect::Swaps;
        topts.trialAggression =
            mirage::router::mirageAggressionMix(opts.layoutTrials);
        break;
      case mp::Flow::MirageDepth:
        topts.postSelect = mirage::router::PostSelect::Depth;
        topts.trialAggression =
            mirage::router::mirageAggressionMix(opts.layoutTrials);
        break;
    }
    if (opts.fixedAggression >= 0)
        topts.trialAggression = {
            mirage::router::Aggression(opts.fixedAggression)};
    return topts;
}

namespace {

/** transpileImpl, stage by stage, each stage under its own span. */
void
replayInto(ReplayRecord &rec, const Circuit &input,
           const mirage::topology::CouplingMap &coupling,
           const mp::TranspileOptions &opts, Trace &trace, int64_t op)
{
    auto timed = [&](size_t stage, auto &&body) {
        Trace::Scope span(trace, replayStages()[stage], op);
        const auto t0 = Clock::now();
        body();
        rec.stageMs[stage] += msSince(t0);
    };

    opts.deadline.check("pipeline.start");
    std::optional<mirage::monodromy::CostModel> cost_model;
    timed(0, [&] {
        cost_model.emplace(
            mirage::monodromy::makeRootIswapCostModel(opts.rootDegree));
    });

    Circuit cleaned;
    timed(1, [&] { cleaned = mp::unrollThreeQubit(input); });
    timed(2, [&] {
        mirage::circuit::ConsolidateOptions copts;
        rec.consolidated =
            mirage::circuit::consolidateBlocks(cleaned, copts,
                                               &rec.consolidate);
    });

    mp::TranspileResult &result = rec.result;
    auto lower = [&] {
        if (!opts.lowerToBasis)
            return;
        timed(6, [&] {
            result.lowered = opts.equivalenceLibrary->translate(
                result.routed, &result.translateStats, opts.deadline);
        });
        timed(5, [&] {
            result.loweredMetrics = mp::measuredPulseMetrics(
                result.lowered, cost_model->basisDuration());
        });
        result.loweredToBasis = true;
    };

    if (opts.tryVf2) {
        rec.vf2Ran = true;
        std::optional<mirage::layout::Layout> vf2;
        timed(3, [&] {
            vf2 = mirage::layout::findSwapFreeLayout(rec.consolidated,
                                                     coupling);
        });
        if (vf2.has_value()) {
            rec.vf2Found = true;
            Circuit placed(coupling.numQubits(), input.name());
            for (const auto &g : rec.consolidated.gates()) {
                mirage::circuit::Gate phys = g;
                for (auto &q : phys.qubits)
                    q = vf2->toPhysical(q);
                placed.append(std::move(phys));
            }
            result.routed = std::move(placed);
            result.initial = *vf2;
            result.final = *vf2;
            result.usedVf2 = true;
            timed(5, [&] {
                result.metrics =
                    mp::computeMetrics(result.routed, *cost_model);
            });
            lower();
            return;
        }
    }

    const mirage::router::TrialOptions topts =
        trialOptionsFor(opts, *cost_model);
    mirage::router::RouteResult routed;
    timed(4, [&] {
        routed = mirage::router::routeWithTrials(rec.consolidated, coupling,
                                                 topts);
    });
    result.routingMs = rec.stage("router.route");
    result.routed = std::move(routed.routed);
    result.initial = routed.initial;
    result.final = routed.final;
    result.swapsAdded = routed.swapsAdded;
    result.mirrorsAccepted = routed.mirrorsAccepted;
    result.mirrorCandidates = routed.mirrorCandidates;
    result.routingCounters = routed.counters;
    timed(5, [&] {
        result.metrics = mp::computeMetrics(result.routed, *cost_model);
    });
    lower();
}

} // namespace

ReplayRecord
replayTranspile(const Circuit &input,
                const mirage::topology::CouplingMap &coupling,
                const mp::TranspileOptions &opts, Trace &trace, int64_t op)
{
    if (opts.lowerToBasis && !opts.equivalenceLibrary)
        throw std::invalid_argument("replay lowering needs a library");
    ReplayRecord rec;
    rec.stageMs.assign(replayStages().size(), 0.0);
    const auto t0 = Clock::now();
    {
        Trace::Scope root(trace, "mirage.replay", op);
        rec.rootSpan = root.index();
        replayInto(rec, input, coupling, opts, trace, op);
    }
    rec.wallMs = msSince(t0);
    return rec;
}

} // namespace perfbench
