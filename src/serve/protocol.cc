/**
 * @file
 * Serve protocol implementation: the request-option table and the
 * request path shared with the one-shot CLI (option checks, circuit
 * parsing, input checks, output), the content key of the result memo
 * cache, and the transpile report builder.
 */

#include "serve/protocol.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "circuit/qasm.hh"
#include "common/serial.hh"

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

using mirage_pass::TranspileOptions;

/** Flow names, in Flow order. */
constexpr const char *kFlowNames[] = {"sabre", "mirage-swaps", "mirage"};

/** The request-option table, in Option order. */
const RequestOption kRequestOptions[] = {
    {"topology", "--topology", "SPEC",
     "device coupling map: grid<R>x<C>, line<N>, ring<N>, heavyhex57, "
     "heavyhex433, heavyhex1121, alltoall<N>, auto",
     0, 0, &TranspileRequest::topology},
    {"format", "--format", "FMT", "output format: json (report) or qasm "
     "(circuit)", 0, 0, &TranspileRequest::format},
    {"flow", "--flow", "NAME", "pipeline flow: sabre, mirage-swaps, mirage",
     0, 0, &TranspileOptions::flow},
    {"trials", "--trials", "N", "independent layout trials", 1, INT_MAX,
     &TranspileOptions::layoutTrials},
    {"swapTrials", "--swap-trials", "N", "routing repeats per layout", 1,
     INT_MAX, &TranspileOptions::swapTrials},
    {"fwdBwd", "--fwd-bwd", "N", "layout refinement rounds", 0, INT_MAX,
     &TranspileOptions::forwardBackwardPasses},
    // At most 2^53, so a JSON report reproduces the seed exactly.
    {"seed", "--seed", "N", "root RNG seed (decimal, 0 to 2^53)", 0,
     double(json::kMaxExactInteger), &TranspileOptions::seed},
    {"aggression", "--aggression", "N", "fixed mirror aggression 0-3 (-1 "
     "= 5/45/45/5 mix)", -1, 3, &TranspileOptions::fixedAggression},
    // The roots with committed coverage tables (monodromy/coverage.hh).
    {"root", "--root", "N", "basis gate: the N-th root of iSWAP (2-4)", 2,
     4, &TranspileOptions::rootDegree},
    {"lower", "--lower", "", "lower the routed circuit to RootISWAP "
     "pulses and measure pulse metrics", 0, 0,
     &TranspileOptions::lowerToBasis},
    {"vf2", "--no-vf2", "", "skip the VF2 SWAP-free layout check", 0, 0,
     &TranspileOptions::tryVf2},
    // More would overflow the clock-tick conversion in Deadline::afterMs.
    {"deadlineMs", "--deadline-ms", "N", "abort with exit 1 if the "
     "pipeline exceeds this compute budget (0 = none)", 1, INT_MAX,
     &TranspileRequest::deadlineMs},
};
static_assert(std::size(kRequestOptions) == size_t(Option::DeadlineMs) + 1);

/** The field `member` names in `req` or in its pipeline options. */
template <typename Req, typename Owner, typename T>
auto &
fieldOf(Req &req, T Owner::*member)
{
    if constexpr (std::is_same_v<Owner, TranspileRequest>)
        return req.*member;
    else
        return req.options.*member;
}

/** Check `value` against `row` (a number against [lo, row.hi]), then set
 * its field; errors name `name`. */
void
setChecked(TranspileRequest &req, const RequestOption &row,
           const json::Value &value, const std::string &name, double lo)
{
    auto fail = [&name](const std::string &what) {
        throw RequestError("request", "option '" + name + "' " + what);
    };
    std::visit(
        [&](auto member) {
            auto &field = fieldOf(req, member);
            using T = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_same_v<T, bool>) {
                if (!value.isBool())
                    fail("must be a boolean");
                field = value.asBool();
            } else if constexpr (std::is_arithmetic_v<T>) {
                if (!value.isNumber())
                    fail("must be a number");
                const double d = value.asNumber();
                if (std::is_integral_v<T> && d != std::floor(d))
                    fail("must be an integer");
                // Checked on the double, so the conversion is always
                // defined and no value is silently truncated into an int.
                if (!(d >= lo && d <= row.hi))
                    fail("must be in [" + json::formatNumber(lo) + ", " +
                         json::formatNumber(row.hi) + "]");
                field = T(d);
            } else {
                if (!value.isString())
                    fail("must be a string");
                const std::string &s = value.asString();
                auto unknown = [&](const char *expected) {
                    throw RequestError("request", "unknown " + name +
                                                      " '" + s + "' " +
                                                      expected);
                };
                if constexpr (std::is_same_v<T, mirage_pass::Flow>) {
                    const auto *it = std::ranges::find(
                        kFlowNames, s == "mirage-depth" ? "mirage" : s);
                    if (it == std::end(kFlowNames))
                        unknown("(expected sabre, mirage-swaps, or mirage)");
                    field = T(it - std::begin(kFlowNames));
                } else {
                    if (&field == &req.format && s != "json" && s != "qasm")
                        unknown("(expected json or qasm)");
                    field = s;
                }
            }
        },
        row.field);
}

/** A flag's decimal integer text as a JSON number; beyond +-2^53, where
 * a double could round it into range, +-infinity. */
json::Value
decimalValue(const std::string &flag, const std::string &text)
{
    int64_t v = 0;
    const std::errc ec = serial::parseInt(text, v);
    if (ec == std::errc::invalid_argument)
        throw RequestError("request", "option '" + flag +
                                          "' expects a decimal integer, "
                                          "got '" + text + "'");
    const auto limit = int64_t(json::kMaxExactInteger);
    if (ec != std::errc() || v > limit || v < -limit)
        return text[0] == '-' ? -HUGE_VAL : HUGE_VAL;
    return double(v);
}

} // namespace

const char *
flowName(mirage_pass::Flow flow)
{
    return kFlowNames[size_t(flow)];
}

std::span<const RequestOption>
requestOptions()
{
    return kRequestOptions;
}

const RequestOption &
requestOption(Option row)
{
    return kRequestOptions[size_t(row)];
}

TranspileRequest
parseTranspileRequest(const json::Value &doc)
{
    TranspileRequest req;
    if (!doc.isObject())
        throw RequestError("request", "request must be a JSON object");
    bool sawQasm = false;
    for (const auto &[key, value] : doc.members()) {
        if (key == "id") {
            req.id = value;
        } else if (key == "qasm" || key == "name") {
            if (!value.isString())
                throw RequestError("request",
                                   "field '" + key + "' must be a string");
            (key == "qasm" ? req.qasm : req.name) = value.asString();
            sawQasm = sawQasm || key == "qasm";
        } else if (key == "options") {
            if (!value.isObject())
                throw RequestError("request",
                                   "field 'options' must be an object");
        } else if (key != "op") {
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
    for (const auto &[key, value] : options->members()) {
        const auto row =
            std::ranges::find(kRequestOptions, key, &RequestOption::key);
        if (row == std::end(kRequestOptions))
            throw RequestError("request", "unknown option '" + key + "'");
        setChecked(req, *row, value, key, row->lo);
    }
    return req;
}

json::Value
optionValue(const TranspileRequest &req, const RequestOption &row)
{
    return std::visit(
        [&req](auto member) {
            const auto &field = fieldOf(req, member);
            if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                         mirage_pass::Flow>)
                return json::Value(flowName(field));
            else
                return json::Value(field);
        },
        row.field);
}

void
applyFlag(TranspileRequest &req, const RequestOption &row,
          const std::string &text)
{
    static const TranspileRequest defaults;
    const json::Value d = optionValue(defaults, row);
    if (d.isBool())
        return setChecked(req, row, !d.asBool(), row.flag, row.lo);
    if (d.isString())
        return setChecked(req, row, text, row.flag, row.lo);
    setChecked(req, row, decimalValue(row.flag, text), row.flag,
               std::min(row.lo, d.asNumber()));
}

circuit::Circuit
parseRequestCircuit(const std::string &qasm, const std::string &where,
                    const std::string &subject)
{
    circuit::Circuit c;
    try {
        c = circuit::fromQasm(qasm);
    } catch (const circuit::QasmError &e) {
        throw RequestError("qasm", where + ":" + std::to_string(e.line()) +
                                       ":" + std::to_string(e.column()) +
                                       ": " + e.message());
    }
    if (c.numQubits() == 0)
        throw RequestError("input", subject + " declares no qubits");
    return c;
}

topology::CouplingMap
parseTopology(const std::string &spec, int min_qubits,
              const std::string &name)
{
    try {
        return topology::CouplingMap::parseSpec(spec, min_qubits);
    } catch (const std::invalid_argument &e) {
        throw RequestError("request", "option '" + name + "': " + e.what());
    }
}

void
checkTopologyFits(const circuit::Circuit &input,
                  const topology::CouplingMap &topo, const std::string &spec)
{
    if (topo.numQubits() < input.numQubits())
        throw RequestError("input", "topology '" + spec + "' has " +
                                        std::to_string(topo.numQubits()) +
                                        " qubits but the circuit needs " +
                                        std::to_string(input.numQubits()));
}

namespace {

/** The report's `options` block, and so the options part of the memo
 * key: every request option that can change the result. */
json::Value
optionsJson(const mirage_pass::TranspileOptions &opts)
{
    json::Value o = json::Value::object();
    o.set("flow", flowName(opts.flow));
    o.set("rootDegree", opts.rootDegree);
    o.set("layoutTrials", opts.layoutTrials);
    o.set("swapTrials", opts.swapTrials);
    o.set("forwardBackwardPasses", opts.forwardBackwardPasses);
    o.set("seed", opts.seed);
    o.set("fixedAggression", opts.fixedAggression);
    o.set("tryVf2", opts.tryVf2);
    o.set("lowerToBasis", opts.lowerToBasis);
    return o;
}

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
    key += "|fmt=";
    key += format;
    key += '|';
    key += optionsJson(o).dump(0);
    return key;
}

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
    doc.set("options", optionsJson(opts));
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
transpileOutput(const TranspileRequest &req, const circuit::Circuit &input,
                const topology::CouplingMap &topo,
                const mirage_pass::TranspileResult &res)
{
    if (req.format == "qasm")
        return circuit::toQasm(res.loweredToBasis ? res.lowered : res.routed);
    return transpileReportJson(req.name, input, topo, req.options, res);
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
              const std::string &message, double retry_after_ms)
{
    json::Value v = okEnvelope(id);
    v.set("ok", false);
    json::Value e = json::Value::object();
    e.set("code", code);
    e.set("message", message);
    if (retry_after_ms >= 0)
        e.set("retryAfterMs", retry_after_ms);
    v.set("error", std::move(e));
    return v;
}

} // namespace mirage::serve
