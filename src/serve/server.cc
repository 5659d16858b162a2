/**
 * @file
 * Serve engine + transports. Each miss is transpiled on the connection
 * thread that received it; concurrent misses fan their trial grids out
 * on the one shared pool (parallelFor is safe from many non-worker
 * threads at once). Responses are keyed by request id, and every result
 * is bit-identical to a one-shot transpile by the trial engine's
 * determinism guarantee, whatever else shares the pool.
 */

#include "serve/server.hh"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>

#include "common/deadline.hh"
#include "common/fault.hh"
#include "common/logging.hh"

namespace mirage::serve {

// --- Engine -----------------------------------------------------------------

Engine::Engine(EngineOptions opts)
    : opts_(std::move(opts)), pool_(opts_.threads),
      cache_(opts_.cacheEntries == 0 ? 1 : opts_.cacheEntries)
{
    // Warm the root-2 library from the committed fit catalog before
    // serving, so the first --lower request fits nothing. A failed load
    // is recorded (unreadable vs malformed) and libraryFor() builds that
    // root lazily, preseeded, like every other root.
    auto lib = decomp::loadCatalog(decomp::kCatalogRootDegree,
                                   opts_.catalogPath, &catalog_);
    if (lib) {
        warnIf(decomp::mergeCacheDir(*lib, opts_.cacheDir));
        libraries_.emplace(decomp::kCatalogRootDegree, std::move(lib));
    }
}

Engine::~Engine()
{
    std::lock_guard<std::mutex> lock(libMutex_);
    for (const auto &entry : libraries_)
        warnIf(decomp::saveLibrary(*entry.second, opts_.cacheDir));
}

void
Engine::beginShutdown()
{
    shuttingDown_.store(true);
}

EngineCounters
Engine::counters() const
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    return counters_;
}

void
Engine::countDroppedResponse()
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    ++counters_.dropped;
}

decomp::EquivalenceLibrary *
Engine::libraryFor(int root_degree)
{
    std::lock_guard<std::mutex> lock(libMutex_);
    auto it = libraries_.find(root_degree);
    if (it != libraries_.end())
        return it->second.get();
    // The constructor already consulted the catalog for its root.
    decomp::LibraryReport report;
    auto lib = decomp::openLibrary(root_degree, decomp::kCatalogDisabled,
                                   opts_.cacheDir, &report);
    warnIf(report.cacheWarning);
    return libraries_.emplace(root_degree, std::move(lib))
        .first->second.get();
}

std::shared_ptr<const topology::CouplingMap>
Engine::resolveTopology(const std::string &spec, int min_qubits)
{
    // Resolve "auto" to the concrete grid it would pick BEFORE keying
    // the cache: two different-width circuits under "auto" may need
    // different grids, and must not alias each other's entry.
    const std::string name = requestOption(Option::Topology).key;
    std::string key;
    try {
        key = topology::CouplingMap::resolveAutoSpec(spec, min_qubits);
    } catch (const std::invalid_argument &e) {
        throw RequestError("request", "option '" + name + "': " + e.what());
    }
    {
        std::lock_guard<std::mutex> lock(topoMutex_);
        if (auto *cached = topologies_.get(key))
            return *cached;
    }
    // Build outside the lock (heavyhex1121 construction does real BFS
    // work); a racing duplicate build is harmless -- last writer wins
    // and both maps are identical. An evicted map lives on in the
    // requests still holding it.
    auto built = std::make_shared<const topology::CouplingMap>(
        parseTopology(key, min_qubits, name));
    std::lock_guard<std::mutex> lock(topoMutex_);
    return topologies_.put(key, std::move(built));
}

mirage_pass::TranspileResult
Engine::compute(const circuit::Circuit &input,
                const topology::CouplingMap &topology,
                mirage_pass::TranspileOptions options)
{
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        // Admission control: shed instead of piling work onto the pool
        // without bound. A chaos schedule can also force the shed path
        // on a quiet server.
        if (fault::shouldFail("queue.admit") ||
            (opts_.maxQueue > 0 && inflightMisses_ >= opts_.maxQueue)) {
            ++counters_.shed;
            throw RequestError(
                "overloaded",
                "admission full (" + std::to_string(inflightMisses_) +
                    " misses in flight); retry later",
                avgJobMs_ * double(inflightMisses_ + 1));
        }
        ++inflightMisses_;
    }

    options.pool = &pool_;
    const auto start = std::chrono::steady_clock::now();
    mirage_pass::TranspileResult result;
    try {
        if (options.lowerToBasis)
            options.equivalenceLibrary = libraryFor(options.rootDegree);
        result = mirage_pass::transpile(input, topology, options);
    } catch (...) {
        std::lock_guard<std::mutex> lock(countersMutex_);
        --inflightMisses_;
        throw;
    }
    const double job_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    // Count BEFORE any waiter is released: once a response is visible,
    // a stats snapshot must already include its transpile (the bench
    // gate relies on this).
    std::lock_guard<std::mutex> lock(countersMutex_);
    --inflightMisses_;
    ++counters_.transpiles;
    // Rough per-job cost estimate feeding retryAfterMs.
    avgJobMs_ = 0.8 * avgJobMs_ + 0.2 * job_ms;
    return result;
}

json::Value
Engine::handleTranspile(const json::Value &doc, const json::Value &id)
{
    if (shuttingDown_.load())
        throw RequestError("shutdown", "server is shutting down");

    TranspileRequest req = parseTranspileRequest(doc);
    const circuit::Circuit input =
        parseRequestCircuit(req.qasm, "qasm", "circuit");

    // Per-request size caps: a single huge circuit must not be able to
    // monopolize the worker pool of a shared server.
    if ((opts_.maxQubits > 0 && input.numQubits() > opts_.maxQubits) ||
        (opts_.maxGates > 0 && int(input.size()) > opts_.maxGates)) {
        {
            std::lock_guard<std::mutex> lock(countersMutex_);
            ++counters_.tooLarge;
        }
        throw RequestError(
            "toolarge",
            "circuit (" + std::to_string(input.numQubits()) + " qubits, " +
                std::to_string(input.size()) + " gates) exceeds server caps" +
                (opts_.maxQubits > 0
                     ? " maxQubits=" + std::to_string(opts_.maxQubits)
                     : "") +
                (opts_.maxGates > 0
                     ? " maxGates=" + std::to_string(opts_.maxGates)
                     : ""));
    }

    // Effective deadline: the request's budget capped by the server's.
    // The clock starts HERE, at admission, so time spent waiting for
    // pool workers behind other work counts against the budget.
    double deadline_ms = req.deadlineMs;
    if (opts_.deadlineMs > 0 &&
        (deadline_ms <= 0 || deadline_ms > opts_.deadlineMs))
        deadline_ms = opts_.deadlineMs;
    Deadline deadline;
    if (deadline_ms > 0)
        deadline = Deadline::afterMs(deadline_ms);

    auto topo = resolveTopology(req.topology, input.numQubits());
    checkTopologyFits(input, *topo, req.topology);

    const std::string key =
        resultCacheKey(input, topo->name(), req.options, req.format);

    auto respond = [this, &id, &req](const EntryPtr &entry, bool hit,
                                     bool coalesced) {
        json::Value v = okEnvelope(id);
        v.set("kind", "transpile");
        json::Value c = json::Value::object();
        c.set("hit", hit);
        c.set("coalesced", coalesced);
        {
            std::lock_guard<std::mutex> lock(countersMutex_);
            c.set("hits", counters_.cacheHits);
            c.set("misses", counters_.cacheMisses);
        }
        v.set("cache", std::move(c));
        if (entry->isString()) {
            v.set("qasm", *entry);
            return v;
        }
        // The memo key is name-free, so an entry may have been computed
        // for another request: echo this request's own name.
        json::Value report = *entry;
        json::Value in = report["input"];
        in.set("file", req.name);
        report.set("input", std::move(in));
        v.set("report", std::move(report));
        return v;
    };

    // A deadlined miss computes SOLO: it neither joins nor registers a
    // single-flight rendezvous, since a deadlined request never blocks
    // on another's compute. Completed results still land in the memo --
    // a deadline never changes result content, only whether there is
    // one.
    const bool solo = deadline.active();
    std::shared_future<EntryPtr> waitFor;
    std::optional<std::promise<EntryPtr>> rendezvous; // set iff registered
    EntryPtr hitEntry;
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        std::lock_guard<std::mutex> clock(countersMutex_);
        if (auto entry = cache_.get(key)) {
            hitEntry = *entry; // snapshot; the LRU may evict it later
            ++counters_.cacheHits;
        } else if (auto it = pending_.find(key);
                   !solo && it != pending_.end()) {
            waitFor = it->second;
            ++counters_.coalesced;
        } else {
            if (!solo)
                pending_[key] = rendezvous.emplace().get_future().share();
            ++counters_.cacheMisses;
        }
    }
    if (hitEntry)
        return respond(hitEntry, true, false);

    if (waitFor.valid()) {
        // Single-flight: an identical request is already computing;
        // wait for its entry instead of duplicating the work. Null
        // means the owner failed: compute for ourselves, solo.
        if (EntryPtr entry = waitFor.get())
            return respond(entry, true, true);
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.cacheMisses;
    }

    EntryPtr shared;
    try {
        mirage_pass::TranspileOptions options = req.options;
        options.deadline = deadline;
        mirage_pass::TranspileResult result =
            compute(input, *topo, std::move(options));
        shared = std::make_shared<const json::Value>(
            transpileOutput(req, input, *topo, result));
    } catch (...) {
        // Drop the rendezvous so a retry computes fresh, then release
        // the waiters empty-handed: each computes for itself.
        if (rendezvous) {
            {
                std::lock_guard<std::mutex> lock(memoMutex_);
                pending_.erase(key);
            }
            rendezvous->set_value(nullptr);
        }
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        cache_.put(key, shared);
        if (rendezvous)
            pending_.erase(key);
    }
    if (rendezvous)
        rendezvous->set_value(shared);
    return respond(shared, false, false);
}

json::Value
Engine::statsResponse(const json::Value &id) const
{
    json::Value v = okEnvelope(id);
    v.set("kind", "stats");
    v.set("protocolVersion", kProtocolVersion);
    EngineCounters c = counters();
    json::Value cj = json::Value::object();
    cj.set("requests", c.requests);
    cj.set("transpiles", c.transpiles);
    cj.set("cacheHits", c.cacheHits);
    cj.set("cacheMisses", c.cacheMisses);
    cj.set("coalesced", c.coalesced);
    // Kept for protocol compatibility (clients read maxBatchSize):
    // every transpile is its own batch of one.
    cj.set("batches", c.transpiles);
    cj.set("batchedRequests", c.transpiles);
    cj.set("maxBatchSize", uint64_t(c.transpiles > 0 ? 1 : 0));
    cj.set("errors", c.errors);
    cj.set("shed", c.shed);
    cj.set("deadlines", c.deadlines);
    cj.set("tooLarge", c.tooLarge);
    cj.set("dropped", c.dropped);
    v.set("counters", std::move(cj));
    {
        json::Value limits = json::Value::object();
        limits.set("maxQueue", opts_.maxQueue);
        limits.set("deadlineMs", opts_.deadlineMs);
        limits.set("maxQubits", opts_.maxQubits);
        limits.set("maxGates", opts_.maxGates);
        v.set("limits", std::move(limits));
    }
    if (fault::armed()) {
        json::Value f = json::Value::object();
        f.set("spec", fault::spec());
        f.set("totalInjected", fault::injectedCount());
        json::Value inj = json::Value::object();
        for (const auto &p : fault::stats())
            if (p.injected > 0)
                inj.set(p.point, p.injected);
        f.set("injected", std::move(inj));
        v.set("faults", std::move(f));
    }
    {
        json::Value cache = json::Value::object();
        {
            std::lock_guard<std::mutex> lock(memoMutex_);
            cache.set("entries", uint64_t(cache_.size()));
        }
        cache.set("capacity", uint64_t(opts_.cacheEntries));
        {
            std::lock_guard<std::mutex> lock(topoMutex_);
            cache.set("topologies", uint64_t(topologies_.size()));
        }
        v.set("cache", std::move(cache));
    }
    {
        json::Value cat = json::Value::object();
        cat.set("path", catalog_.path);
        cat.set("status",
                catalog_.path.empty()
                    ? "none"
                    : decomp::loadStatusName(catalog_.result.status));
        v.set("catalog", std::move(cat));
    }
    v.set("poolThreads", pool_.numThreads());
    v.set("shuttingDown", shuttingDown_.load());
    return v;
}

json::Value
Engine::handleValue(const json::Value &request)
{
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.requests;
    }
    json::Value id;
    if (request.isObject())
        if (const json::Value *found = request.find("id"))
            id = *found;

    auto fail = [this, &id](const std::string &code,
                            const std::string &message,
                            double retry_after_ms = -1) {
        std::lock_guard<std::mutex> lock(countersMutex_);
        ++counters_.errors;
        return errorResponse(id, code, message, retry_after_ms);
    };

    try {
        std::string op = "transpile";
        if (request.isObject()) {
            if (const json::Value *found = request.find("op")) {
                if (!found->isString())
                    throw RequestError("request",
                                       "field 'op' must be a string");
                op = found->asString();
            }
        }
        if (op == "transpile")
            return handleTranspile(request, id);
        if (op == "stats")
            return statsResponse(id);
        if (op == "ping") {
            json::Value v = okEnvelope(id);
            v.set("kind", "pong");
            return v;
        }
        if (op == "shutdown") {
            beginShutdown();
            json::Value v = okEnvelope(id);
            v.set("kind", "shutdown");
            v.set("draining", true);
            return v;
        }
        throw RequestError("request", "unknown op '" + op +
                                          "' (expected transpile, stats, "
                                          "ping, or shutdown)");
    } catch (const RequestError &e) {
        return fail(e.code(), e.what(), e.retryAfterMs());
    } catch (const DeadlineError &e) {
        {
            std::lock_guard<std::mutex> lock(countersMutex_);
            ++counters_.deadlines;
        }
        return fail("deadline", e.what());
    } catch (const fault::Injected &e) {
        return fail("fault", e.what());
    } catch (const std::exception &e) {
        return fail("internal", e.what());
    }
}

std::string
Engine::handle(const std::string &line)
{
    json::Value doc;
    try {
        doc = json::parse(line);
    } catch (const json::ParseError &e) {
        return lineError("parse", e.what());
    }
    return handleValue(doc).dump(0);
}

std::string
Engine::rejectOversizedLine()
{
    return lineError("request", "request line exceeds " +
                                    std::to_string(kMaxRequestLineBytes) +
                                    " bytes");
}

std::string
Engine::lineError(const std::string &code, const std::string &message)
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    ++counters_.requests;
    ++counters_.errors;
    return errorResponse(json::Value(), code, message).dump(0);
}

// --- stdio transport --------------------------------------------------------

namespace {

/**
 * std::getline that stops after kMaxRequestLineBytes + 1 bytes, so an
 * over-cap line is recognized without being buffered whole.
 */
bool
getBoundedLine(std::istream &in, std::string &line)
{
    line.clear();
    std::streambuf *buf = in.rdbuf();
    for (int c = buf->sbumpc(); c != std::char_traits<char>::eof();
         c = buf->sbumpc()) {
        if (c == '\n')
            return true;
        line += char(c);
        if (line.size() > kMaxRequestLineBytes)
            return true;
    }
    return !line.empty();
}

} // namespace

uint64_t
serveStdio(Engine &engine, std::istream &in, std::ostream &out)
{
    uint64_t handled = 0;
    std::string line;
    while (getBoundedLine(in, line)) {
        if (line.empty())
            continue;
        const bool over_cap = line.size() > kMaxRequestLineBytes;
        out << (over_cap ? engine.rejectOversizedLine() : engine.handle(line))
            << "\n" << std::flush;
        ++handled;
        if (!out) {
            // Downstream pipe gone (SIGPIPE is ignored in cmdServe, so
            // the write surfaces as a stream failure): count the lost
            // response and stop instead of spinning on a dead stream.
            engine.countDroppedResponse();
            break;
        }
        // An over-cap line ends the session: the rest of it is never read.
        if (over_cap || engine.shuttingDown())
            break;
    }
    return handled;
}

// --- Unix-socket transport --------------------------------------------------

namespace {

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += size_t(n);
    }
    return true;
}

} // namespace

SocketServer::SocketServer(Engine &engine, std::string socket_path)
    : engine_(engine), path_(std::move(socket_path))
{
}

SocketServer::~SocketServer()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(path_.c_str());
    }
}

void
SocketServer::start()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path))
        throw ServeError("socket path too long: '" + path_ + "'");
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        throw ServeError(std::string("socket(): ") + std::strerror(errno));

    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        if (errno != EADDRINUSE) {
            int e = errno;
            ::close(listenFd_);
            listenFd_ = -1;
            throw ServeError("bind('" + path_ + "'): " + std::strerror(e));
        }
        // A socket file exists. Probe it: if nobody answers, it is a
        // stale leftover from a dead server -- replace it. If a server
        // answers, refuse to hijack the path.
        int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        bool live = probe >= 0 &&
                    ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0;
        if (probe >= 0)
            ::close(probe);
        if (live) {
            ::close(listenFd_);
            listenFd_ = -1;
            throw ServeError("'" + path_ +
                             "' already has a live server behind it");
        }
        ::unlink(path_.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            int e = errno;
            ::close(listenFd_);
            listenFd_ = -1;
            throw ServeError("bind('" + path_ + "'): " + std::strerror(e));
        }
    }
    if (::listen(listenFd_, 64) < 0) {
        int e = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(path_.c_str());
        throw ServeError("listen('" + path_ + "'): " + std::strerror(e));
    }
}

void
SocketServer::connectionLoop(Connection *conn)
{
    std::string buffer;
    size_t scanned = 0; ///< buffer[0, scanned) holds no newline
    char chunk[4096];
    bool open = true;
    while (open) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        // Chaos hook: a read error is indistinguishable from the client
        // hanging up mid-request -- drop the connection (and anything
        // buffered) exactly as a real disconnect would.
        if (fault::shouldFail("serve.read"))
            break;
        buffer.append(chunk, size_t(n));
        for (;;) {
            // Scan only the new bytes: a long line must not cost a
            // rescan of its prefix per chunk.
            const size_t pos = buffer.find('\n', scanned);
            scanned = pos == std::string::npos ? buffer.size() : pos;
            const bool over_cap = scanned > kMaxRequestLineBytes;
            if (pos == std::string::npos && !over_cap)
                break;
            std::string response;
            if (over_cap) {
                response = engine_.rejectOversizedLine();
            } else {
                std::string line = buffer.substr(0, pos);
                buffer.erase(0, pos + 1);
                scanned = 0;
                if (line.empty())
                    continue;
                response = engine_.handle(line);
            }
            response += '\n';
            // A failed send means the client vanished mid-response
            // (EPIPE/ECONNRESET -- sendAll uses MSG_NOSIGNAL, and
            // cmdServe ignores SIGPIPE, so the process survives). The
            // chaos hook fakes the same outcome. Either way the lost
            // response is counted and the work stays memoized for the
            // client's retry.
            if (fault::shouldFail("serve.write") ||
                !sendAll(conn->fd, response)) {
                engine_.countDroppedResponse();
                open = false;
                break;
            }
            if (over_cap || engine_.shuttingDown()) {
                // An over-cap line closes the connection (the rest of it
                // is never read). After a delivered shutdown response,
                // stop reading so run() can drain and exit.
                open = false;
                break;
            }
        }
    }
    conn->done.store(true);
}

void
SocketServer::run()
{
    if (listenFd_ < 0)
        start();

    while (!stopRequested_.load() && !engine_.shuttingDown()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, 100);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (r == 0) {
            // Idle tick: reap connections whose client went away so a
            // long-running server does not accumulate dead fds.
            std::lock_guard<std::mutex> lock(connMutex_);
            for (auto it = connections_.begin();
                 it != connections_.end();) {
                if ((*it)->done.load()) {
                    if ((*it)->thread.joinable())
                        (*it)->thread.join();
                    ::close((*it)->fd);
                    it = connections_.erase(it);
                } else {
                    ++it;
                }
            }
            continue;
        }
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == ECONNABORTED)
                continue;
            break;
        }
        // Chaos hook: an accept that fails after the fact (client gave
        // up, fd pressure) -- close and keep listening.
        if (fault::shouldFail("serve.accept")) {
            ::close(fd);
            continue;
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection *raw = conn.get();
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            connections_.push_back(std::move(conn));
        }
        raw->thread = std::thread([this, raw] { connectionLoop(raw); });
    }

    // Drain: stop listening, wake blocked readers (writes still flush),
    // join every connection thread.
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(path_.c_str());
    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto &conn : connections_)
        if (!conn->done.load())
            ::shutdown(conn->fd, SHUT_RD);
    for (auto &conn : connections_) {
        if (conn->thread.joinable())
            conn->thread.join();
        ::close(conn->fd);
    }
    connections_.clear();
}

} // namespace mirage::serve
