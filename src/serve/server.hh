/**
 * @file
 * The persistent transpilation service behind `mirage serve`.
 *
 * Engine is the transport-independent core: it owns ONE warm trial-grid
 * thread pool, ONE persistent equivalence library per basis root, a
 * topology cache, and a thread-safe LRU memo of full transpile results
 * keyed by (exact circuit, topology, options, format). handle()
 * is safe to call from any number of connection threads concurrently;
 * each miss is transpiled on the thread that called handle(), with its
 * trial grid fanned out on the shared pool (concurrent misses share the
 * pool's workers), and identical in-flight requests are coalesced
 * (single-flight) so a thundering herd computes each result once. A
 * waiter waits on at most one other computation: when its owner fails
 * it computes for itself, under its own deadline and admission check,
 * so every error a request returns comes from its own compute.
 *
 * Transports: SocketServer accepts newline-delimited JSON over a Unix
 * domain socket (one thread per connection); serveStdio() runs the same
 * protocol over a stream pair for tests and piping.
 */

#ifndef MIRAGE_SERVE_SERVER_HH
#define MIRAGE_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/exec.hh"
#include "common/lru_cache.hh"
#include "decomp/catalog.hh"
#include "serve/protocol.hh"

namespace mirage::serve {

/** Transport/bind failure (socket setup, stale path, ...). */
class ServeError : public std::runtime_error
{
  public:
    explicit ServeError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** Engine construction knobs (the `mirage serve` flags). */
struct EngineOptions
{
    /** Trial-grid worker threads (0 = all cores). */
    int threads = 0;
    /** Result memo capacity, in full transpile reports. */
    size_t cacheEntries = 256;
    /**
     * Equivalence-library persistence directory: each root's library is
     * loaded on first use and saved on engine shutdown, so a restarted
     * server lowers warm. Empty = in-memory only.
     */
    std::string cacheDir;
    /**
     * Committed fit catalog warm-starting the root-2 library at
     * construction: "" auto-discovers ./FIT_CATALOG.bin, "none"
     * disables, else an explicit path.
     * The load outcome (including the unreadable-vs-malformed split)
     * is reported via Engine::catalogLoad() so the transport can log
     * which failure happened at startup.
     */
    std::string catalogPath;
    /**
     * Admission-control bound on misses in flight (0 = unbounded). A
     * miss arriving with this many already computing is shed with an
     * "overloaded" error carrying a retryAfterMs estimate, instead of
     * piling ever more work onto the shared pool.
     */
    int maxQueue = 256;
    /**
     * Server-wide compute budget per request in milliseconds (0 =
     * none). A request's own deadlineMs is honored up to this cap; the
     * clock starts at admission, so time waiting for pool workers
     * counts against it.
     */
    double deadlineMs = 0;
    /** Reject circuits wider than this with "toolarge" (0 = no cap). */
    int maxQubits = 0;
    /** Reject circuits with more gates than this (0 = no cap). */
    int maxGates = 0;
};

/**
 * Monotonic service counters. Everything except `coalesced` is
 * deterministic for a deterministic request sequence (coalescing
 * depends on arrival timing; the rest does not).
 */
struct EngineCounters
{
    uint64_t requests = 0;        ///< lines handled (any op)
    uint64_t transpiles = 0;      ///< circuits actually transpiled
    uint64_t cacheHits = 0;       ///< memo hits
    /** Memo misses (the request computed). A waiter whose owner
     * failed computes for itself and adds one. */
    uint64_t cacheMisses = 0;
    uint64_t coalesced = 0;       ///< waited on an identical in-flight miss
    uint64_t errors = 0;          ///< error responses produced
    uint64_t shed = 0;            ///< requests rejected "overloaded"
    uint64_t deadlines = 0;       ///< requests that died of "deadline"
    uint64_t tooLarge = 0;        ///< requests rejected by size caps
    uint64_t dropped = 0;         ///< responses lost to dead clients
};

/** The transport-independent serving core (see file comment). */
class Engine
{
  public:
    /** Parsed topologies kept (least recently used evicted first); the
     * largest spec parseSpec admits holds about 1 MB. */
    static constexpr size_t kTopologyCacheEntries = 64;

    explicit Engine(EngineOptions opts = {});
    /**
     * Persists libraries (cacheDir set; a failed save is warned
     * about). Does not wait for requests:
     * every caller must have returned from handle() first, which
     * SocketServer::run() guarantees by joining its connections.
     */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Handle one request line; always returns a single-line JSON
     * response and never throws (every failure becomes a structured
     * error response). Thread-safe; blocks until the result is ready.
     */
    std::string handle(const std::string &line);

    /**
     * The response to a line longer than kMaxRequestLineBytes, which a
     * transport stops reading at the cap: a "request" error, counted
     * like any other. The transport then closes the connection.
     */
    std::string rejectOversizedLine();

    /**
     * Stop accepting transpile work: subsequent transpile requests get
     * a "shutdown" error response while stats/ping keep answering.
     * Requests already accepted still complete on their own threads.
     * Idempotent.
     */
    void beginShutdown();
    bool shuttingDown() const { return shuttingDown_.load(); }

    /** Snapshot of the service counters. */
    EngineCounters counters() const;

    /**
     * Record a response that could not be delivered (client hung up
     * mid-write, or an injected serve.write fault). Called by the
     * transports; the work itself stays cached, so a reconnecting
     * client's retry is a memo hit.
     */
    void countDroppedResponse();

    int poolThreads() const { return pool_.numThreads(); }

    /** Resolved catalog path ("" when disabled or not found). */
    const std::string &catalogPath() const { return catalog_.path; }
    /** Outcome of the startup catalog load (Ok when no catalog). */
    const decomp::EquivalenceLibrary::CacheLoadResult &
    catalogLoad() const
    {
        return catalog_.result;
    }

  private:
    /** One memoized transpileOutput(): the report (an object) or the
     * circuit's QASM text (a string). */
    using EntryPtr = std::shared_ptr<const json::Value>;

    /** handle() on the parsed request line. */
    json::Value handleValue(const json::Value &request);
    /** A counted error response to a line that is not a request. */
    std::string lineError(const std::string &code,
                          const std::string &message);
    json::Value handleTranspile(const json::Value &doc,
                                const json::Value &id);
    json::Value statsResponse(const json::Value &id) const;

    /** Resolve+cache a topology spec (throws RequestError on bad spec). */
    std::shared_ptr<const topology::CouplingMap>
    resolveTopology(const std::string &spec, int min_qubits);

    /** Per-root persistent library (created on first use). */
    decomp::EquivalenceLibrary *libraryFor(int root_degree);

    /**
     * Admit one miss and transpile it on the calling thread against the
     * shared pool. Throws an "overloaded" RequestError when `maxQueue`
     * misses are already in flight; counts the transpile before returning.
     */
    mirage_pass::TranspileResult
    compute(const circuit::Circuit &input,
            const topology::CouplingMap &topology,
            mirage_pass::TranspileOptions options);

    EngineOptions opts_;
    exec::ThreadPool pool_;

    mutable std::mutex libMutex_;
    std::map<int, std::unique_ptr<decomp::EquivalenceLibrary>> libraries_;
    decomp::CatalogLoad catalog_; ///< the startup catalog load

    mutable std::mutex topoMutex_;
    LruCache<std::string, std::shared_ptr<const topology::CouplingMap>>
        topologies_{kTopologyCacheEntries};

    mutable std::mutex memoMutex_;
    LruCache<std::string, EntryPtr> cache_;
    /**
     * Single-flight rendezvous per in-flight key: the owner's result,
     * or null when the owner failed (each waiter then computes for
     * itself, so every error a request returns is its own).
     */
    std::unordered_map<std::string, std::shared_future<EntryPtr>> pending_;

    std::atomic<bool> shuttingDown_{false};

    mutable std::mutex countersMutex_;
    EngineCounters counters_;
    /** EWMA of per-job compute time, feeding retryAfterMs estimates.
     * Guarded by countersMutex_. */
    double avgJobMs_ = 50.0;
    /** Misses admitted by compute() and not yet finished. Guarded by
     * countersMutex_. */
    int inflightMisses_ = 0;
};

/**
 * Serve newline-delimited requests from `in` to `out` until EOF, a
 * shutdown request, or a line longer than kMaxRequestLineBytes. Sequential (one request at a time); used by
 * `mirage serve --stdio` and tests. Returns the number of requests.
 */
uint64_t serveStdio(Engine &engine, std::istream &in, std::ostream &out);

/** Unix-domain-socket front end (one thread per connection). */
class SocketServer
{
  public:
    /** Does not bind yet; start() does. */
    SocketServer(Engine &engine, std::string socket_path);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind + listen on the socket path. A stale socket file (no server
     * behind it) is replaced; a live one raises ServeError.
     */
    void start();

    /**
     * Accept/serve until stop(), engine shutdown, or a shutdown
     * request. Joins every connection thread before returning.
     */
    void run();

    /** Ask run() to return (safe from other threads/signal context). */
    void stop() { stopRequested_.store(true); }

    const std::string &path() const { return path_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void connectionLoop(Connection *conn);

    Engine &engine_;
    std::string path_;
    int listenFd_ = -1;
    std::atomic<bool> stopRequested_{false};
    std::mutex connMutex_;
    std::vector<std::unique_ptr<Connection>> connections_;
};

} // namespace mirage::serve

#endif // MIRAGE_SERVE_SERVER_HH
