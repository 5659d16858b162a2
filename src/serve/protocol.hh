/**
 * @file
 * Request/response schema of the `mirage serve` transpilation service.
 *
 * The wire protocol is deliberately minimal: one JSON object per line
 * in each direction (newline-delimited, over a Unix socket or stdio).
 * A request carries an `op` ("transpile", "stats", "ping", "shutdown";
 * default "transpile"), an optional client-chosen `id` that is echoed
 * verbatim in the response, and for transpile the OpenQASM 2 `qasm`
 * text plus an `options` object mirroring the `mirage transpile`
 * flags. Every response is a single JSON object with `ok` true/false;
 * failures carry a structured `error` {code, message} instead of
 * killing the connection or the server.
 *
 * This header also hosts the request path the one-shot CLI shares with
 * the server -- the request-option table (keys, flags, ranges, and the
 * defaults in TranspileRequest), circuit parsing and input checks, and
 * the output builder -- so a served response is bit-identical to
 * `mirage transpile` output by construction, not by parallel evolution.
 */

#ifndef MIRAGE_SERVE_PROTOCOL_HH
#define MIRAGE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>

#include "circuit/circuit.hh"
#include "common/json.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

namespace mirage::serve {

/** Version stamped into transpile reports and bench artifacts. */
inline constexpr int kProtocolVersion = 1;

/**
 * Longest request line, newline excluded, that either transport reads.
 * A longer line gets a "request" error and its connection closes; the
 * rest of it is never buffered, so one client cannot grow the server's
 * memory without limit.
 */
inline constexpr size_t kMaxRequestLineBytes = size_t(16) << 20;

/**
 * A request answered with a structured {code, message} error (the codes
 * errorResponse lists). A load shed ("overloaded") carries the engine's
 * estimate of when the in-flight work will have drained, so clients back
 * off instead of hammering a saturated server; other codes carry -1.
 */
class RequestError : public std::runtime_error
{
  public:
    RequestError(std::string code, const std::string &message,
                 double retry_after_ms = -1)
        : std::runtime_error(message), code_(std::move(code)),
          retryAfterMs_(retry_after_ms)
    {
    }

    /** Stable machine-readable discriminator ("request", "qasm", ...). */
    const std::string &code() const { return code_; }
    double retryAfterMs() const { return retryAfterMs_; }

  private:
    std::string code_;
    double retryAfterMs_;
};

/** One parsed transpile request (transport- and cache-agnostic). Its
 * initializers are the request-option defaults of both front ends. */
struct TranspileRequest
{
    /** Echoed verbatim in the response; null when the client sent none. */
    json::Value id;
    /** Label used as the report's input.file (default "<request>"). */
    std::string name = "<request>";
    /** OpenQASM 2 source of the circuit to transpile. */
    std::string qasm;
    /** Device spec (topology::CouplingMap::parseSpec forms). */
    std::string topology = "auto";
    /** "json" (full report) or "qasm" (routed/lowered circuit). */
    std::string format = "json";
    /** Pipeline options: the library defaults but 8 layout trials;
     * threads/pool/library/deadline are the front end's, not options. */
    mirage_pass::TranspileOptions options{.layoutTrials = 8};
    /**
     * Per-request compute budget in milliseconds (0 = none). The engine
     * caps it at its own --deadline-ms when one is set. NOT part of the
     * cache key: a deadline never changes a completed result, only
     * whether one is produced.
     */
    double deadlineMs = 0;
};

/** The field a request option sets. Its type is the option's JSON type:
 * a string (a Flow by name), a number (an integer unless the field is a
 * double), or a boolean. */
using OptionField = std::variant<
    std::string TranspileRequest::*, double TranspileRequest::*,
    mirage_pass::Flow mirage_pass::TranspileOptions::*,
    int mirage_pass::TranspileOptions::*,
    uint64_t mirage_pass::TranspileOptions::*,
    bool mirage_pass::TranspileOptions::*>;

/**
 * One client-settable transpile option: a row of the request-option
 * table, the only place a request option's JSON key or `mirage
 * transpile` flag is spelled. Both front ends check values through it.
 */
struct RequestOption
{
    const char *key;       ///< JSON key inside a request's `options`
    const char *flag;      ///< `mirage transpile` flag
    const char *valueName; ///< the flag's value; "" for a bool's switch
    const char *help;      ///< the flag's --help line
    double lo, hi;         ///< accepted range of a number
    OptionField field;
};

/** The table's rows, in table (and --help) order. */
enum class Option { Topology, Format, Flow, Trials, SwapTrials, FwdBwd,
                    Seed, Aggression, Root, Lower, Vf2, DeadlineMs };

std::span<const RequestOption> requestOptions();
const RequestOption &requestOption(Option row);

/** The field `row` sets, as JSON (a Flow by name). */
json::Value optionValue(const TranspileRequest &req, const RequestOption &row);

/**
 * Parse the `id`/`qasm`/`name`/`options` fields of a transpile request
 * document, each option through its table row. Throws RequestError
 * ("request") on unknown keys, ill-typed values, or values out of range.
 */
TranspileRequest parseTranspileRequest(const json::Value &doc);

/**
 * Set `row` from its command-line flag's text: a decimal integer for a
 * number, ignored for a bool's switch, which flips the default. The
 * value is then checked like a JSON value, so a bad one is a
 * RequestError ("request") naming the flag. A flag's range also holds
 * its default: `--deadline-ms 0` means none, where JSON takes >= 1.
 */
void applyFlag(TranspileRequest &req, const RequestOption &row,
               const std::string &text);

const char *flowName(mirage_pass::Flow flow);

/** Parse a request's circuit: a "qasm" RequestError at `where`:line:col,
 * or an "input" one if "<subject> declares no qubits". */
circuit::Circuit parseRequestCircuit(const std::string &qasm,
                                     const std::string &where,
                                     const std::string &subject);

/** topology::CouplingMap::parseSpec; a bad spec is a "request" error
 * that names `name`, the option the spec came from. */
topology::CouplingMap parseTopology(const std::string &spec, int min_qubits,
                                    const std::string &name);

/** "input" RequestError unless `topology` (from `spec`) fits `input`. */
void checkTopologyFits(const circuit::Circuit &input,
                       const topology::CouplingMap &topology,
                       const std::string &spec);

/**
 * Canonical cache key for (circuit, topology, options, format): the
 * circuit's exact content (qubit count and every gate's kind, operands,
 * parameter bits, mirror flag and explicit matrices), so two different
 * circuits never share a memo entry, then the RESOLVED topology name
 * (so "auto" keys by the grid it chose), the format, and the report's
 * `options` block. That block leaves out `threads`/`pool`: output is
 * bit-identical across thread counts by the trial engine's guarantee,
 * so they must not fragment the cache. The request's `name` is not
 * part of it either: a hit answers with its own name.
 */
std::string resultCacheKey(const circuit::Circuit &circuit,
                           const std::string &topology_name,
                           const mirage_pass::TranspileOptions &options,
                           const std::string &format);

/**
 * The `mirage transpile` JSON report (schemaVersion / kind /
 * input / topology / options / result [/ lowered]). Shared by the
 * one-shot CLI path and the serve engine so the two are bit-identical.
 */
json::Value transpileReportJson(const std::string &file_label,
                                const circuit::Circuit &input,
                                const topology::CouplingMap &topology,
                                const mirage_pass::TranspileOptions &options,
                                const mirage_pass::TranspileResult &result);

/** A request's answer: format "qasm" gives the lowered (else routed)
 * circuit as a QASM string, "json" the report labelled `req.name`. */
json::Value transpileOutput(const TranspileRequest &req,
                            const circuit::Circuit &input,
                            const topology::CouplingMap &topology,
                            const mirage_pass::TranspileResult &result);

/** {"id": <id>, "ok": true} -- the start of every success response. */
json::Value okEnvelope(const json::Value &id);

/**
 * {"id": <id>, "ok": false, "error": {"code": ..., "message": ...}}.
 * `code` is one of: "parse" (malformed JSON), "request" (schema or
 * option-range violation), "qasm" (circuit text failed to parse),
 * "input" (circuit/topology mismatch), "toolarge" (circuit exceeds the
 * server's --max-qubits/--max-gates caps), "overloaded" (too many
 * misses in flight; the error object carries `retryAfterMs`), "deadline"
 * (request budget exhausted mid-pipeline), "fault" (an injected chaos
 * fault fired), "shutdown" (server draining), "internal" (unexpected
 * exception). docs/ARCHITECTURE.md "Failure model" is the normative
 * list; tests/test_chaos.cc pins that no other code can escape. A
 * `retry_after_ms` >= 0 adds an `error.retryAfterMs` hint (for
 * "overloaded").
 */
json::Value errorResponse(const json::Value &id, const std::string &code,
                          const std::string &message,
                          double retry_after_ms = -1);

} // namespace mirage::serve

#endif // MIRAGE_SERVE_PROTOCOL_HH
