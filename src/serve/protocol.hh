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
 * This header also hosts the pieces the one-shot CLI path shares with
 * the server -- flow-name parsing and the transpile report builder --
 * so a served response is bit-identical to `mirage transpile` output
 * by construction, not by parallel evolution.
 */

#ifndef MIRAGE_SERVE_PROTOCOL_HH
#define MIRAGE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>

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
 * Schema violation in an otherwise well-formed JSON request: unknown
 * op, missing/ill-typed field, or an option value outside its valid
 * range. Maps to a structured {code, message} error response.
 */
class RequestError : public std::runtime_error
{
  public:
    RequestError(std::string code, const std::string &message)
        : std::runtime_error(message), code_(std::move(code))
    {
    }

    /** Stable machine-readable discriminator ("request", "qasm", ...). */
    const std::string &code() const { return code_; }

  private:
    std::string code_;
};

/**
 * Load-shed rejection ("overloaded"): too many misses are in flight.
 * The response carries `retryAfterMs`, the engine's estimate of when
 * the in-flight work will have drained, so well-behaved clients back
 * off instead of hammering a saturated server.
 */
class OverloadedError : public RequestError
{
  public:
    explicit OverloadedError(const std::string &message,
                             double retry_after_ms)
        : RequestError("overloaded", message),
          retryAfterMs_(retry_after_ms)
    {
    }

    double retryAfterMs() const { return retryAfterMs_; }

  private:
    double retryAfterMs_;
};

/** One parsed transpile request (transport- and cache-agnostic). */
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
    /**
     * Pipeline options. threads/pool/equivalenceLibrary are engine-wide
     * and not client-settable; requests only choose the deterministic
     * knobs (flow, trials, seed, aggression, root, lower, vf2).
     */
    mirage_pass::TranspileOptions options;
    /**
     * Per-request compute budget in milliseconds (0 = none). The engine
     * caps it at its own --deadline-ms when one is set. NOT part of the
     * cache key: a deadline never changes a completed result, only
     * whether one is produced.
     */
    double deadlineMs = 0;
};

/**
 * Parse the `options`/`qasm`/`name`/`topology`/`format` fields of a
 * transpile request document. Throws RequestError on unknown keys,
 * ill-typed values, or out-of-range numerics (same bounds the CLI
 * enforces: trials/swap-trials >= 1, fwd-bwd >= 0, root >= 2,
 * aggression in [-1, 3]).
 */
TranspileRequest parseTranspileRequest(const json::Value &doc);

/** Flow name <-> enum (shared with the CLI's --flow flag). */
mirage_pass::Flow parseFlow(const std::string &name); ///< throws RequestError
const char *flowName(mirage_pass::Flow flow);

/**
 * Canonical cache key for (circuit, topology, options, format): the
 * circuit's exact content (qubit count and every gate's kind, operands,
 * parameter bits, mirror flag and explicit matrices), so two different
 * circuits never share a memo entry. Uses the RESOLVED topology name
 * (so "auto" keys by the grid it chose) and excludes
 * `threads`/`pool` -- output is bit-identical across thread counts by
 * the trial engine's guarantee, so they must not fragment the cache.
 * The request's `name` is not part of it either: a hit answers with
 * its own name.
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
 * list; tests/test_chaos.cc pins that no other code can escape.
 */
json::Value errorResponse(const json::Value &id, const std::string &code,
                          const std::string &message);

/** errorResponse plus an `error.retryAfterMs` hint (for "overloaded"). */
json::Value errorResponse(const json::Value &id, const std::string &code,
                          const std::string &message, double retry_after_ms);

} // namespace mirage::serve

#endif // MIRAGE_SERVE_PROTOCOL_HH
