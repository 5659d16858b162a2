/**
 * @file
 * Traffic-generator implementation: deterministic synthetic circuits,
 * the two-phase warmup/drive workload over either transport, artifact
 * assembly, and the exact-counter regression check.
 */

#include "serve/traffic.hh"

#include <errno.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <thread>
#include <vector>

#include "circuit/circuit.hh"
#include "circuit/qasm.hh"
#include "common/fault.hh"
#include "common/rng.hh"
#include "serve/server.hh"

namespace mirage::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Uniform double in [0, 2*pi) from one rng draw. */
double
angleDraw(StreamRng &rng)
{
    return double(rng() >> 11) * 0x1.0p-53 * 2.0 * linalg::kPi;
}

} // namespace

std::string
syntheticQasm(int index, int width, int two_qubit_gates, uint64_t seed)
{
    StreamRng rng(seed, 0x7261666669636bULL + uint64_t(index));
    circuit::Circuit c(width, "traffic" + std::to_string(index));
    for (int q = 0; q < width; ++q)
        c.h(q);
    for (int g = 0; g < two_qubit_gates; ++g) {
        int a = int(rng() % uint64_t(width));
        int b = int(rng() % uint64_t(width - 1));
        if (b >= a)
            ++b;
        c.rz(angleDraw(rng), a);
        c.ry(angleDraw(rng), b);
        c.cx(a, b);
    }
    return circuit::toQasm(c);
}

namespace {

/** The transpile request line for circuit #index of the workload. */
std::string
requestLine(const TrafficOptions &o, int index, const std::string &qasm,
            int request_id)
{
    json::Value req = json::Value::object();
    req.set("id", request_id);
    req.set("op", "transpile");
    req.set("name", "traffic" + std::to_string(index));
    req.set("qasm", qasm);
    json::Value opts = json::Value::object();
    opts.set("topology", o.topology);
    opts.set("trials", o.trials);
    opts.set("swapTrials", o.swapTrials);
    opts.set("fwdBwd", o.fwdBwd);
    opts.set("seed", o.seed);
    opts.set("aggression", o.aggression);
    opts.set("lower", o.lower);
    req.set("options", std::move(opts));
    return req.dump(0);
}

uint64_t
counterOf(const json::Value &report, const char *name)
{
    const json::Value *result = report.find("result");
    if (!result)
        return 0;
    const json::Value *counters = result->find("routingCounters");
    if (!counters)
        return 0;
    const json::Value *v = counters->find(name);
    return v && v->isNumber() ? uint64_t(v->asNumber()) : 0;
}

} // namespace

json::Value
runTraffic(const TrafficOptions &o, std::ostream &log)
{
    const bool overSocket = !o.socketPath.empty();

    // The in-process engine (unused over a socket). The memo must hold
    // the whole distinct set or drive-phase hits stop being exact.
    EngineOptions eopts;
    eopts.threads = o.engineThreads;
    eopts.cacheEntries = std::max<size_t>(256, size_t(o.distinct) * 4);
    std::unique_ptr<Engine> engine;
    if (!overSocket)
        engine = std::make_unique<Engine>(eopts);

    // call(): one request line -> one response line, whatever the
    // transport. Over the socket each thread makes its own client.
    auto makeCall = [&]() -> std::function<std::string(const std::string &)> {
        if (!overSocket) {
            Engine *e = engine.get();
            return [e](const std::string &line) { return e->handle(line); };
        }
        auto client = std::make_shared<SocketClient>(o.socketPath);
        return [client](const std::string &line) {
            return client->roundTrip(line);
        };
    };

    std::vector<std::string> qasm(size_t(o.distinct));
    for (int k = 0; k < o.distinct; ++k)
        qasm[size_t(k)] =
            syntheticQasm(k, o.width, o.twoQubitGates, o.seed);

    // --- phase 1: warmup (sequential; every circuit misses once) ----------
    log << "mirage: serve-bench warmup: " << o.distinct
        << " distinct circuits on " << o.topology << "...\n";
    auto warmCall = makeCall();
    std::vector<std::string> referenceReports(size_t(o.distinct));
    uint64_t warmupMisses = 0, warmupErrors = 0;
    uint64_t heuristicEvals = 0, swapCandidates = 0, mirrorOutlooks = 0;
    const auto warmupStart = Clock::now();
    for (int k = 0; k < o.distinct; ++k) {
        const std::string response =
            warmCall(requestLine(o, k, qasm[size_t(k)], k));
        json::Value doc = json::parse(response);
        if (!doc["ok"].asBool()) {
            ++warmupErrors;
            continue;
        }
        if (!doc["cache"]["hit"].asBool())
            ++warmupMisses;
        const json::Value &report = doc["report"];
        referenceReports[size_t(k)] = report.dump(0);
        heuristicEvals += counterOf(report, "heuristicEvals");
        swapCandidates += counterOf(report, "swapCandidates");
        mirrorOutlooks += counterOf(report, "mirrorOutlooks");
    }
    const double warmupMs = msSince(warmupStart);

    // --- phase 2: drive (N clients, all requests memo hits) ---------------
    const int driveTotal = o.clients * o.requestsPerClient;
    log << "mirage: serve-bench drive: " << o.clients << " clients x "
        << o.requestsPerClient << " requests...\n";
    std::vector<std::thread> clients;
    std::mutex mergeMutex;
    std::vector<double> latenciesMs;
    latenciesMs.reserve(size_t(driveTotal));
    uint64_t driveHits = 0, driveErrors = 0;
    bool bitIdentical = true;
    const auto driveStart = Clock::now();
    for (int i = 0; i < o.clients; ++i) {
        clients.emplace_back([&, i] {
            auto call = makeCall();
            std::vector<double> local;
            local.reserve(size_t(o.requestsPerClient));
            uint64_t hits = 0, errors = 0;
            bool identical = true;
            for (int j = 0; j < o.requestsPerClient; ++j) {
                const int k = (i + j) % o.distinct;
                const std::string line = requestLine(
                    o, k, qasm[size_t(k)], 1000 + i * 1000 + j);
                const auto t0 = Clock::now();
                const std::string response = call(line);
                local.push_back(msSince(t0));
                json::Value doc = json::parse(response);
                if (!doc["ok"].asBool()) {
                    ++errors;
                    continue;
                }
                if (doc["cache"]["hit"].asBool())
                    ++hits;
                if (doc["report"].dump(0) != referenceReports[size_t(k)])
                    identical = false;
            }
            std::lock_guard<std::mutex> lock(mergeMutex);
            latenciesMs.insert(latenciesMs.end(), local.begin(),
                               local.end());
            driveHits += hits;
            driveErrors += errors;
            bitIdentical = bitIdentical && identical;
        });
    }
    for (auto &t : clients)
        t.join();
    const double driveMs = msSince(driveStart);

    // Engine-side snapshot (stats op works over both transports).
    json::Value stats;
    {
        auto call = makeCall();
        stats = json::parse(call("{\"op\": \"stats\"}"));
    }

    std::sort(latenciesMs.begin(), latenciesMs.end());
    auto percentile = [&latenciesMs](double p) {
        if (latenciesMs.empty())
            return 0.0;
        size_t idx = size_t(p * double(latenciesMs.size() - 1));
        return latenciesMs[idx];
    };

    json::Value doc = json::Value::object();
    doc.set("schemaVersion", kProtocolVersion);
    doc.set("kind", kServeBenchKind);
    {
        json::Value p = json::Value::object();
        p.set("clients", o.clients);
        p.set("requestsPerClient", o.requestsPerClient);
        p.set("distinctCircuits", o.distinct);
        p.set("width", o.width);
        p.set("twoQubitGates", o.twoQubitGates);
        p.set("topology", o.topology);
        p.set("trials", o.trials);
        p.set("swapTrials", o.swapTrials);
        p.set("fwdBwd", o.fwdBwd);
        p.set("seed", o.seed);
        p.set("aggression", o.aggression);
        p.set("lower", o.lower);
        doc.set("parameters", std::move(p));
    }
    {
        // Exact, machine- and thread-count-invariant: what --check
        // gates. A drift here is a behavior change, never noise.
        json::Value c = json::Value::object();
        c.set("requests", uint64_t(o.distinct) + uint64_t(driveTotal));
        c.set("warmupMisses", warmupMisses);
        c.set("driveHits", driveHits);
        c.set("errors", warmupErrors + driveErrors);
        c.set("bitIdentical", bitIdentical);
        c.set("heuristicEvals", heuristicEvals);
        c.set("swapCandidates", swapCandidates);
        c.set("mirrorOutlooks", mirrorOutlooks);
        doc.set("counters", std::move(c));
    }
    {
        // Engine-side view: transpiles is exact for a fresh server
        // (= distinct circuits); coalesced depends on arrival timing,
        // so these live here, uncompared.
        json::Value s = json::Value::object();
        if (const json::Value *counters = stats.find("counters")) {
            for (const auto &[key, value] : counters->members())
                s.set(key, value);
        }
        s.set("transport", overSocket ? "socket" : "in-process");
        doc.set("informational", std::move(s));
    }
    {
        json::Value t = json::Value::object();
        t.set("warmupMs", warmupMs);
        t.set("driveMs", driveMs);
        t.set("requestsPerSec",
              driveMs > 0 ? double(driveTotal) * 1000.0 / driveMs : 0.0);
        t.set("p50Ms", percentile(0.50));
        t.set("p99Ms", percentile(0.99));
        t.set("maxMs", latenciesMs.empty() ? 0.0 : latenciesMs.back());
        doc.set("timing", std::move(t));
    }
    log << "mirage: serve-bench: " << (o.distinct + driveTotal)
        << " requests, " << driveHits << "/" << driveTotal
        << " drive hits, bitIdentical="
        << (bitIdentical ? "true" : "false") << "\n";
    return doc;
}

// --- chaos harness ----------------------------------------------------------

const char *const kDefaultChaosFaults =
    "seed=7,catalog.load=1/1,cache.save=1/1,fit.converge=1/3,"
    "serve.accept=1/5,serve.read=1/11,serve.write=1/13,queue.admit=1/7";

namespace {

/** The transpile request line for chaos request #request_id. */
std::string
chaosRequestLine(const ChaosOptions &o, int index, const std::string &qasm,
                 int request_id, bool lower, double deadline_ms)
{
    json::Value req = json::Value::object();
    req.set("id", request_id);
    req.set("op", "transpile");
    req.set("name", "chaos" + std::to_string(index));
    req.set("qasm", qasm);
    json::Value opts = json::Value::object();
    opts.set("topology", o.topology);
    opts.set("trials", o.trials);
    opts.set("swapTrials", o.swapTrials);
    opts.set("fwdBwd", o.fwdBwd);
    opts.set("seed", o.seed);
    opts.set("aggression", o.aggression);
    opts.set("lower", lower);
    if (deadline_ms > 0)
        opts.set("deadlineMs", deadline_ms);
    req.set("options", std::move(opts));
    return req.dump(0);
}

/**
 * SocketClient that treats a dropped connection (injected serve.read/
 * serve.write/serve.accept faults, or a real disconnect) as retryable:
 * reconnect, resend, count the drop. A server that stops answering for
 * good -- crash or deadlock, the two things chaos must never cause --
 * exhausts the attempt budget and throws ServeError.
 */
class ReconnectingClient
{
  public:
    explicit ReconnectingClient(std::string socket_path)
        : path_(std::move(socket_path))
    {
    }

    std::string call(const std::string &line)
    {
        for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
            try {
                if (!client_)
                    client_ = std::make_unique<SocketClient>(path_);
                return client_->roundTrip(line);
            } catch (const ServeError &) {
                client_.reset();
                ++drops_;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        }
        throw ServeError("chaos: no response after " +
                         std::to_string(kMaxAttempts) +
                         " attempts -- server crashed or deadlocked?");
    }

    /** Connection drops survived (reconnect-and-resend cycles). */
    uint64_t drops() const { return drops_; }

  private:
    static constexpr int kMaxAttempts = 200;
    std::string path_;
    std::unique_ptr<SocketClient> client_;
    uint64_t drops_ = 0;
};

} // namespace

json::Value
runChaos(const ChaosOptions &o, std::ostream &log)
{
    const bool external = !o.socketPath.empty();
    std::string workDir = o.workDir;
    if (workDir.empty())
        workDir = "/tmp/mirage-chaos-" + std::to_string(::getpid());
    ::mkdir(workDir.c_str(), 0755);

    std::vector<std::string> qasm(size_t(o.distinct));
    for (int k = 0; k < o.distinct; ++k)
        qasm[size_t(k)] =
            syntheticQasm(k, o.width, o.twoQubitGates, o.seed);

    // --- fault-free references -------------------------------------------
    // Every SUCCESSFUL chaos response must be byte-identical to these:
    // faults may fail a request, never corrupt one.
    fault::disarm();
    log << "mirage: chaos: computing " << o.distinct
        << " fault-free reference reports...\n";
    std::vector<std::string> reference(size_t(o.distinct));
    {
        EngineOptions ropts;
        ropts.threads = o.engineThreads;
        ropts.catalogPath = "none";
        Engine ref(ropts);
        for (int k = 0; k < o.distinct; ++k) {
            json::Value doc = json::parse(ref.handle(chaosRequestLine(
                o, k, qasm[size_t(k)], k, false, 0.0)));
            if (!doc["ok"].asBool())
                throw ServeError(
                    "chaos: fault-free reference request failed: " +
                    doc.dump(0));
            reference[size_t(k)] = doc["report"].dump(0);
        }
    }

    // --- the server under test -------------------------------------------
    const std::string spec =
        o.faultSpec.empty() ? kDefaultChaosFaults : o.faultSpec;
    struct DisarmGuard
    {
        bool active = false;
        ~DisarmGuard()
        {
            if (active)
                fault::disarm();
        }
    } disarmGuard;

    std::unique_ptr<Engine> engine;
    std::unique_ptr<SocketServer> server;
    std::thread serverThread;
    std::string socketPath = o.socketPath;
    bool catalogDegraded = false;
    if (!external) {
        // Give the engine a VALID catalog file so the catalog.load
        // fault fires on a real load: startup must degrade to a cold
        // library, not die.
        const std::string catalogPath = workDir + "/chaos-catalog.bin";
        decomp::EquivalenceLibrary empty(2, /*preseed=*/false);
        empty.saveCacheFile(catalogPath);

        fault::arm(spec);
        disarmGuard.active = true;

        EngineOptions eopts;
        eopts.threads = o.engineThreads;
        eopts.cacheEntries = std::max<size_t>(256, size_t(o.distinct) * 4);
        eopts.catalogPath = catalogPath;
        eopts.cacheDir = workDir; // shutdown save crosses cache.save
        eopts.maxQueue = o.maxQueue;
        engine = std::make_unique<Engine>(eopts);
        catalogDegraded =
            engine->catalogLoad().status !=
            decomp::EquivalenceLibrary::CacheLoadStatus::Ok;
        socketPath = workDir + "/chaos.sock";
        server = std::make_unique<SocketServer>(*engine, socketPath);
        server->start();
        serverThread = std::thread([&server] { server->run(); });
        log << "mirage: chaos: server up at " << socketPath
            << " under schedule '" << spec << "'\n";
    }

    // --- drive ------------------------------------------------------------
    static const std::set<std::string> documented = {
        "parse",      "request",  "qasm",  "input",    "toolarge",
        "overloaded", "deadline", "fault", "shutdown", "internal"};

    ReconnectingClient client(socketPath);
    uint64_t okCount = 0, errorCount = 0;
    uint64_t loweredRequests = 0, deadlineRequests = 0;
    std::map<std::string, uint64_t> errorsByCode;
    std::set<std::string> undocumented;
    bool bitIdentical = true;
    const auto driveStart = Clock::now();
    for (int i = 0; i < o.requests; ++i) {
        const int k = i % o.distinct;
        const bool lower =
            o.lowerEvery > 0 && i % o.lowerEvery == o.lowerEvery - 1;
        const bool withDeadline =
            !lower && o.deadlineEvery > 0 &&
            i % o.deadlineEvery == o.deadlineEvery - 1;
        loweredRequests += lower ? 1 : 0;
        deadlineRequests += withDeadline ? 1 : 0;
        json::Value doc = json::parse(client.call(chaosRequestLine(
            o, k, qasm[size_t(k)], i, lower,
            withDeadline ? o.deadlineMs : 0.0)));
        if (doc["ok"].asBool()) {
            ++okCount;
            if (!lower &&
                doc["report"].dump(0) != reference[size_t(k)]) {
                bitIdentical = false;
                log << "mirage: chaos: request " << i
                    << " DIVERGED from its fault-free reference\n";
            }
        } else {
            ++errorCount;
            const std::string code = doc["error"]["code"].asString();
            ++errorsByCode[code];
            if (!documented.count(code))
                undocumented.insert(code);
        }
    }
    const double driveMs = msSince(driveStart);

    // Server-side counters before teardown (stats answers under chaos
    // too; the reconnecting client rides out injected drops).
    json::Value stats = json::parse(client.call("{\"op\": \"stats\"}"));

    // --- teardown + injection census --------------------------------------
    uint64_t faultKinds = 0, totalInjected = 0;
    json::Value injectedByPoint = json::Value::object();
    if (!external) {
        server->stop();
        serverThread.join();
        server.reset();
        // Engine shutdown persists libraries -> crosses cache.save.
        engine.reset();
        for (const auto &ps : fault::stats()) {
            if (ps.injected == 0)
                continue;
            ++faultKinds;
            totalInjected += ps.injected;
            injectedByPoint.set(ps.point, ps.injected);
        }
        fault::disarm();
        disarmGuard.active = false;
    } else {
        // External server: the schedule and the catalog live in its
        // process; read the census and load status it publishes via
        // the stats op.
        if (const json::Value *cat = stats.find("catalog")) {
            if (const json::Value *st = cat->find("status"))
                catalogDegraded = st->asString() == "unreadable" ||
                                  st->asString() == "malformed";
        }
        const json::Value *f = stats.find("faults");
        const json::Value *inj = f ? f->find("injected") : nullptr;
        if (inj) {
            for (const auto &[point, count] : inj->members()) {
                const uint64_t c = uint64_t(count.asNumber());
                if (c == 0)
                    continue;
                ++faultKinds;
                totalInjected += c;
                injectedByPoint.set(point, count);
            }
        }
    }

    const bool pass = undocumented.empty() && bitIdentical &&
                      okCount > 0 &&
                      faultKinds >= uint64_t(o.requireFaultKinds);

    json::Value doc = json::Value::object();
    doc.set("schemaVersion", kProtocolVersion);
    doc.set("kind", kServeChaosKind);
    {
        json::Value p = json::Value::object();
        p.set("requests", o.requests);
        p.set("distinctCircuits", o.distinct);
        p.set("width", o.width);
        p.set("twoQubitGates", o.twoQubitGates);
        p.set("topology", o.topology);
        p.set("trials", o.trials);
        p.set("swapTrials", o.swapTrials);
        p.set("fwdBwd", o.fwdBwd);
        p.set("seed", o.seed);
        p.set("aggression", o.aggression);
        p.set("lowerEvery", o.lowerEvery);
        p.set("deadlineEvery", o.deadlineEvery);
        p.set("deadlineMs", o.deadlineMs);
        p.set("requireFaultKinds", o.requireFaultKinds);
        p.set("faults", external ? std::string("<server-side>") : spec);
        p.set("transport", external ? "socket" : "in-process");
        doc.set("parameters", std::move(p));
    }
    {
        json::Value r = json::Value::object();
        r.set("okResponses", okCount);
        r.set("errorResponses", errorCount);
        r.set("loweredRequests", loweredRequests);
        r.set("deadlineRequests", deadlineRequests);
        r.set("transportDrops", client.drops());
        json::Value codes = json::Value::object();
        for (const auto &[code, count] : errorsByCode)
            codes.set(code, count);
        r.set("errorsByCode", std::move(codes));
        json::Value undoc = json::Value::array();
        for (const auto &code : undocumented)
            undoc.push(code);
        r.set("undocumentedCodes", std::move(undoc));
        r.set("bitIdentical", bitIdentical);
        r.set("catalogDegraded", catalogDegraded);
        r.set("faultKindsInjected", faultKinds);
        r.set("totalInjected", totalInjected);
        r.set("injectedByPoint", std::move(injectedByPoint));
        doc.set("results", std::move(r));
    }
    {
        json::Value s = json::Value::object();
        if (const json::Value *counters = stats.find("counters")) {
            for (const auto &[key, value] : counters->members())
                s.set(key, value);
        }
        s.set("driveMs", driveMs);
        doc.set("informational", std::move(s));
    }
    doc.set("pass", pass);

    log << "mirage: chaos: " << o.requests << " requests, " << okCount
        << " ok / " << errorCount << " errors, " << client.drops()
        << " drops survived, " << faultKinds
        << " fault kinds injected (total " << totalInjected
        << "), bitIdentical=" << (bitIdentical ? "true" : "false")
        << " -> " << (pass ? "PASS" : "FAIL") << "\n";
    return doc;
}

bool
checkServeArtifact(const json::Value &current, const json::Value &baseline,
                   std::string *report)
{
    auto fail = [report](const std::string &message) {
        if (report) {
            *report += message;
            *report += "\n";
        }
        return false;
    };

    bool ok = true;
    for (const char *section : {"parameters", "counters"}) {
        const json::Value *cur = current.find(section);
        const json::Value *base = baseline.find(section);
        if (!cur || !base) {
            ok = fail(std::string("serve-bench check: missing '") +
                      section + "' section");
            continue;
        }
        // Exact key-by-key comparison in both directions: a missing,
        // added, or changed key is a schema/behavior drift.
        for (const auto &[key, value] : base->members()) {
            const json::Value *now = cur->find(key);
            if (!now) {
                ok = fail(std::string("serve-bench check: ") + section +
                          "." + key + " missing from current artifact");
                continue;
            }
            if (now->dump(0) != value.dump(0))
                ok = fail(std::string("serve-bench check: ") + section +
                          "." + key + " = " + now->dump(0) +
                          " (baseline " + value.dump(0) + ")");
        }
        for (const auto &[key, value] : cur->members()) {
            (void)value;
            if (!base->find(key))
                ok = fail(std::string("serve-bench check: ") + section +
                          "." + key + " not present in baseline");
        }
    }
    return ok;
}

// --- SocketClient -----------------------------------------------------------

SocketClient::SocketClient(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        throw ServeError("socket path too long: '" + socket_path + "'");
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        throw ServeError(std::string("socket(): ") + std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int e = errno;
        ::close(fd_);
        fd_ = -1;
        throw ServeError("connect('" + socket_path +
                         "'): " + std::strerror(e));
    }
}

SocketClient::~SocketClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
SocketClient::roundTrip(const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    size_t off = 0;
    while (off < framed.size()) {
        ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ServeError(std::string("send(): ") +
                             std::strerror(errno));
        }
        off += size_t(n);
    }
    for (;;) {
        size_t pos = buffer_.find('\n');
        if (pos != std::string::npos) {
            std::string response = buffer_.substr(0, pos);
            buffer_.erase(0, pos + 1);
            return response;
        }
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw ServeError("server closed the connection mid-response");
        buffer_.append(chunk, size_t(n));
    }
}

} // namespace mirage::serve
