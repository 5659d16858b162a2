/**
 * @file
 * Serve protocol implementation: request parsing/validation, the
 * content key of the result memo cache, and the transpile report
 * builder shared with the one-shot CLI path.
 */

#include "serve/protocol.hh"

#include <climits>
#include <cmath>
#include <cstring>

namespace mirage::serve {

namespace {

/** LEB128: short for the small counts and indices a circuit holds, and
 * prefix-free, so the key's circuit part parses back one way only. */
void
appendVarint(std::string &out, uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out += char(v | 0x80);
    out += char(v);
}

/** The exact bit pattern of a double (no -0.0/0.0 folding: the memo
 * must never serve a result for a circuit it was not computed from, so
 * "bit-identical in, bit-identical out" is the contract). */
void
appendDouble(std::string &out, double v)
{
    char bits[sizeof v];
    std::memcpy(bits, &v, sizeof v);
    out.append(bits, sizeof v);
}

template <typename Mat>
void
appendMatrix(std::string &out, const Mat &m)
{
    for (const linalg::Complex &e : m.a) {
        appendDouble(out, e.real());
        appendDouble(out, e.imag());
    }
}

} // namespace

mirage_pass::Flow
parseFlow(const std::string &name)
{
    if (name == "sabre")
        return mirage_pass::Flow::SabreBaseline;
    if (name == "mirage-swaps")
        return mirage_pass::Flow::MirageSwaps;
    if (name == "mirage" || name == "mirage-depth")
        return mirage_pass::Flow::MirageDepth;
    throw RequestError("request",
                       "unknown flow '" + name +
                           "' (expected sabre, mirage-swaps, or mirage)");
}

const char *
flowName(mirage_pass::Flow flow)
{
    switch (flow) {
      case mirage_pass::Flow::SabreBaseline: return "sabre";
      case mirage_pass::Flow::MirageSwaps: return "mirage-swaps";
      case mirage_pass::Flow::MirageDepth: return "mirage";
    }
    return "?";
}

TranspileRequest
parseTranspileRequest(const json::Value &doc)
{
    TranspileRequest req;
    if (!doc.isObject())
        throw RequestError("request", "request must be a JSON object");
    if (const json::Value *id = doc.find("id"))
        req.id = *id;

    auto stringField = [](const json::Value &v, const char *key) {
        if (!v.isString())
            throw RequestError("request", std::string("field '") + key +
                                              "' must be a string");
        return v.asString();
    };

    bool sawQasm = false;
    for (const auto &[key, value] : doc.members()) {
        if (key == "id" || key == "op")
            continue;
        if (key == "qasm") {
            req.qasm = stringField(value, "qasm");
            sawQasm = true;
        } else if (key == "name") {
            req.name = stringField(value, "name");
        } else if (key == "options") {
            if (!value.isObject())
                throw RequestError("request",
                                   "field 'options' must be an object");
        } else {
            throw RequestError("request", "unknown request field '" + key +
                                              "'");
        }
    }
    if (!sawQasm)
        throw RequestError("request",
                           "transpile request requires a 'qasm' field");

    const json::Value *options = doc.find("options");
    if (!options)
        return req;

    // The range is checked on the double, so the int64_t conversion is
    // always defined and no value is silently truncated into an int.
    auto intField = [](const json::Value &v, const std::string &key,
                       int64_t lo, int64_t hi) {
        if (!v.isNumber())
            throw RequestError("request", "option '" + key +
                                              "' must be a number");
        double d = v.asNumber();
        if (d != std::floor(d))
            throw RequestError("request", "option '" + key +
                                              "' must be an integer");
        if (!(d >= double(lo) && d <= double(hi)))
            throw RequestError("request", "option '" + key +
                                              "' must be in [" +
                                              std::to_string(lo) + ", " +
                                              std::to_string(hi) + "]");
        return int64_t(d);
    };
    auto boolField = [](const json::Value &v, const std::string &key) {
        if (!v.isBool())
            throw RequestError("request", "option '" + key +
                                              "' must be a boolean");
        return v.asBool();
    };

    mirage_pass::TranspileOptions &o = req.options;
    for (const auto &[key, value] : options->members()) {
        if (key == "topology") {
            if (!value.isString())
                throw RequestError("request",
                                   "option 'topology' must be a string");
            req.topology = value.asString();
        } else if (key == "format") {
            if (!value.isString())
                throw RequestError("request",
                                   "option 'format' must be a string");
            req.format = value.asString();
            if (req.format != "json" && req.format != "qasm")
                throw RequestError("request", "unknown format '" +
                                                  req.format +
                                                  "' (expected json or "
                                                  "qasm)");
        } else if (key == "flow") {
            if (!value.isString())
                throw RequestError("request",
                                   "option 'flow' must be a string");
            o.flow = parseFlow(value.asString());
        } else if (key == "trials") {
            o.layoutTrials = int(intField(value, key, 1, INT_MAX));
        } else if (key == "swapTrials") {
            o.swapTrials = int(intField(value, key, 1, INT_MAX));
        } else if (key == "fwdBwd") {
            o.forwardBackwardPasses = int(intField(value, key, 0, INT_MAX));
        } else if (key == "seed") {
            o.seed = uint64_t(
                intField(value, key, 0, int64_t(json::kMaxExactInteger)));
        } else if (key == "aggression") {
            o.fixedAggression = int(intField(value, key, -1, 3));
        } else if (key == "root") {
            o.rootDegree = int(intField(value, key, 2, INT_MAX));
        } else if (key == "lower") {
            o.lowerToBasis = boolField(value, key);
        } else if (key == "vf2") {
            o.tryVf2 = boolField(value, key);
        } else if (key == "deadlineMs") {
            if (!value.isNumber())
                throw RequestError("request",
                                   "option 'deadlineMs' must be a number");
            // The CLI's --deadline-ms range; a larger budget would
            // overflow the clock-tick conversion in Deadline::afterMs.
            double v = value.asNumber();
            if (!(v >= 1 && v <= INT_MAX))
                throw RequestError("request",
                                   "option 'deadlineMs' must be in [1, "
                                   "2147483647]");
            req.deadlineMs = v;
        } else {
            throw RequestError("request",
                               "unknown option '" + key + "'");
        }
    }
    return req;
}

std::string
resultCacheKey(const circuit::Circuit &c, const std::string &topology_name,
               const mirage_pass::TranspileOptions &o,
               const std::string &format)
{
    // The circuit's exact content comes first, prefix-free (counts
    // before lists, a flag byte before the optional matrices), so it
    // ends unambiguously before the options.
    std::string key;
    key.reserve(96 + 8 * c.size());
    appendVarint(key, uint64_t(c.numQubits()));
    appendVarint(key, c.size());
    for (const circuit::Gate &g : c.gates()) {
        appendVarint(key, uint64_t(g.kind));
        appendVarint(key, g.qubits.size());
        for (int q : g.qubits)
            appendVarint(key, uint64_t(q));
        appendVarint(key, g.params.size());
        for (double p : g.params)
            appendDouble(key, p);
        key += char((g.mirrored ? 1 : 0) | (g.mat2 ? 2 : 0) |
                    (g.mat4 ? 4 : 0));
        if (g.mat2)
            appendMatrix(key, *g.mat2);
        if (g.mat4)
            appendMatrix(key, *g.mat4);
    }
    key += "|topo=";
    key += topology_name;
    key += "|flow=";
    key += flowName(o.flow);
    key += "|root=" + std::to_string(o.rootDegree);
    key += "|trials=" + std::to_string(o.layoutTrials);
    key += "|swap=" + std::to_string(o.swapTrials);
    key += "|fb=" + std::to_string(o.forwardBackwardPasses);
    key += "|seed=" + std::to_string(o.seed);
    key += "|agg=" + std::to_string(o.fixedAggression);
    key += "|vf2=" + std::to_string(o.tryVf2 ? 1 : 0);
    key += "|lower=" + std::to_string(o.lowerToBasis ? 1 : 0);
    key += "|fmt=" + format;
    return key;
}

namespace {

json::Value
metricsJson(const mirage_pass::CircuitMetrics &m)
{
    json::Value v = json::Value::object();
    v.set("depth", m.depth);
    v.set("totalCost", m.totalCost);
    v.set("depthPulses", m.depthPulses);
    v.set("totalPulses", m.totalPulses);
    v.set("swapGates", m.swapGates);
    v.set("twoQubitGates", m.twoQubitGates);
    return v;
}

} // namespace

json::Value
transpileReportJson(const std::string &file_label,
                    const circuit::Circuit &input,
                    const topology::CouplingMap &topo,
                    const mirage_pass::TranspileOptions &opts,
                    const mirage_pass::TranspileResult &res)
{
    json::Value doc = json::Value::object();
    doc.set("schemaVersion", kProtocolVersion);
    doc.set("kind", "mirage-transpile");
    {
        json::Value in = json::Value::object();
        in.set("file", file_label);
        in.set("qubits", input.numQubits());
        in.set("gates", int(input.size()));
        in.set("twoQubitGates", input.twoQubitGateCount());
        doc.set("input", std::move(in));
    }
    {
        json::Value t = json::Value::object();
        t.set("name", topo.name());
        t.set("qubits", topo.numQubits());
        t.set("edges", int(topo.edges().size()));
        doc.set("topology", std::move(t));
    }
    {
        json::Value o = json::Value::object();
        o.set("flow", flowName(opts.flow));
        o.set("rootDegree", opts.rootDegree);
        o.set("layoutTrials", opts.layoutTrials);
        o.set("swapTrials", opts.swapTrials);
        o.set("forwardBackwardPasses", opts.forwardBackwardPasses);
        o.set("threads", opts.threads);
        o.set("seed", opts.seed);
        o.set("fixedAggression", opts.fixedAggression);
        o.set("tryVf2", opts.tryVf2);
        o.set("lowerToBasis", opts.lowerToBasis);
        doc.set("options", std::move(o));
    }
    {
        json::Value r = json::Value::object();
        r.set("metrics", metricsJson(res.metrics));
        r.set("swapsAdded", res.swapsAdded);
        r.set("mirrorsAccepted", res.mirrorsAccepted);
        r.set("mirrorCandidates", res.mirrorCandidates);
        r.set("mirrorAcceptRate", res.mirrorAcceptRate());
        r.set("usedVf2", res.usedVf2);
        r.set("routedGates", int(res.routed.size()));
        // Hot-path work counters: deterministic (thread-invariant), so
        // the report stays byte-identical across reruns and thread
        // counts. Wall time is deliberately NOT emitted here.
        json::Value c = json::Value::object();
        c.set("stallSteps", res.routingCounters.stallSteps);
        c.set("swapCandidates", res.routingCounters.swapCandidates);
        c.set("heuristicEvals", res.routingCounters.heuristicEvals);
        c.set("mirrorOutlooks", res.routingCounters.mirrorOutlooks);
        c.set("extSetBuilds", res.routingCounters.extSetBuilds);
        c.set("extSetReuses", res.routingCounters.extSetReuses);
        r.set("routingCounters", std::move(c));
        doc.set("result", std::move(r));
    }
    if (res.loweredToBasis) {
        json::Value l = json::Value::object();
        l.set("metrics", metricsJson(res.loweredMetrics));
        l.set("gates", int(res.lowered.size()));
        l.set("blocksTranslated", res.translateStats.blocksTranslated);
        l.set("cacheHits", res.translateStats.cacheHits);
        l.set("newFits", res.translateStats.newFits);
        l.set("worstInfidelity", res.translateStats.worstInfidelity);
        l.set("pulses", res.translateStats.totalPulses);
        doc.set("lowered", std::move(l));
    }
    return doc;
}

json::Value
okEnvelope(const json::Value &id)
{
    json::Value v = json::Value::object();
    v.set("id", id);
    v.set("ok", true);
    return v;
}

json::Value
errorResponse(const json::Value &id, const std::string &code,
              const std::string &message)
{
    json::Value v = okEnvelope(id);
    v.set("ok", false);
    json::Value e = json::Value::object();
    e.set("code", code);
    e.set("message", message);
    v.set("error", std::move(e));
    return v;
}

json::Value
errorResponse(const json::Value &id, const std::string &code,
              const std::string &message, double retry_after_ms)
{
    json::Value v = okEnvelope(id);
    v.set("ok", false);
    json::Value e = json::Value::object();
    e.set("code", code);
    e.set("message", message);
    e.set("retryAfterMs", retry_after_ms);
    v.set("error", std::move(e));
    return v;
}

} // namespace mirage::serve
