/**
 * @file
 * Synthetic traffic generator + throughput/latency artifact for the
 * serve engine (`mirage serve-bench`).
 *
 * The workload is a two-phase deterministic pattern chosen so the
 * interesting counters are exact and machine-invariant, which lets CI
 * gate them like BENCH_fig13.json:
 *
 *   1. warmup -- the D distinct synthetic circuits are requested once
 *      each, sequentially: exactly D memo misses and D transpiles, and
 *      the summed deterministic routing counters of those transpiles.
 *   2. drive  -- N client threads each fire R requests round-robin
 *      over the same D circuits: exactly N*R memo hits, every response
 *      byte-identical to its warmup report (`bitIdentical`).
 *
 * Requests/sec and p50/p99/max latency are measured over the drive
 * phase and recorded as informational timing (never gated). The
 * generator can drive an in-process Engine (default; what `--check`
 * gates) or a live `mirage serve` instance over its Unix socket.
 */

#ifndef MIRAGE_SERVE_TRAFFIC_HH
#define MIRAGE_SERVE_TRAFFIC_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/json.hh"

namespace mirage::serve {

/** The artifact's `kind` tag. */
inline constexpr const char *kServeBenchKind = "mirage-serve-bench";

/**
 * Deterministic synthetic request circuit #index: seeded layered
 * random 1Q rotations + CNOTs (pure function of index/width/gates/
 * seed, identical on every platform).
 */
std::string syntheticQasm(int index, int width, int two_qubit_gates,
                          uint64_t seed);

/**
 * Run the fixed two-phase workload (8 clients x 6 requests over 4
 * distinct 5-qubit, 18-CX circuits on grid3x3; see traffic.cc) against
 * an in-process engine, or, when `socket_path` is non-empty, a live
 * server at that socket. Progress goes to `log`. Returns the
 * serve-bench artifact: {schemaVersion, kind, parameters, counters
 * (exact -- see file comment), informational (engine-side snapshot),
 * timing}. Throws ServeError when a socket target is unreachable.
 */
json::Value runTraffic(const std::string &socket_path, std::ostream &log);

/**
 * Regression gate for `mirage serve-bench --check`: `parameters` and
 * `counters` must match the baseline EXACTLY (they are deterministic;
 * any drift is a behavior change, not noise). Timing and the
 * `informational` block are never compared. Returns false and
 * explains into *report on mismatch.
 */
bool checkServeArtifact(const json::Value &current,
                        const json::Value &baseline, std::string *report);

/** The chaos artifact's `kind` tag. */
inline constexpr const char *kServeChaosKind = "mirage-serve-chaos";

/** Where one chaos run (`mirage serve-bench --chaos`) happens. */
struct ChaosOptions
{
    /** Non-empty: torture a live `mirage serve --faults ...` at this
     * socket instead of an in-process server. */
    std::string socketPath;
    /** Scratch directory for the in-process server's socket, catalog,
     * and cacheDir ("" = /tmp/mirage-chaos-<pid>). */
    std::string workDir;
};

/**
 * Drive a server through a seeded fault schedule (200 requests over 6
 * distinct 4-qubit circuits on grid2x2; every 5th is lowered and every
 * 7th, unless lowered, carries a 1 ms deadline; see traffic.cc) and
 * prove it degrades instead of dying: reference reports are computed
 * fault-free first, then every chaos-run success must be
 * byte-identical to its reference and every failure must carry a
 * documented error code. Returns the
 * chaos artifact {schemaVersion, kind, parameters, results, pass};
 * throws ServeError only when the server stops answering for good
 * (crash/deadlock -- the one thing that must never happen).
 */
json::Value runChaos(const ChaosOptions &opts, std::ostream &log);

/**
 * Minimal line-oriented client for the serve socket protocol (used by
 * the traffic generator, tests, and scripting).
 */
class SocketClient
{
  public:
    /** Connects immediately; throws ServeError on failure. */
    explicit SocketClient(const std::string &socket_path);
    ~SocketClient();

    SocketClient(const SocketClient &) = delete;
    SocketClient &operator=(const SocketClient &) = delete;

    /**
     * Send one request line, block for one response line. Throws
     * ServeError on a broken connection.
     */
    std::string roundTrip(const std::string &line);

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace mirage::serve

#endif // MIRAGE_SERVE_TRAFFIC_HH
