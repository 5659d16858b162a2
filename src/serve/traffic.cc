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

/** Seed of every synthetic circuit and of every request's pipeline. */
constexpr uint64_t kSeed = 20240229;
/** Mirror aggression of every request (-1 = the mixed per-trial set). */
constexpr int kAggression = -1;

/**
 * One fixed request mix: `distinct` synthetic circuits of `width`
 * qubits and `twoQubitGates` CXs, each requested on `topology` with
 * the same trial counts.
 */
struct Workload
{
    const char *name; ///< request-name prefix ("traffic0", "chaos5")
    int distinct;
    int width;
    int twoQubitGates;
    const char *topology;
    int trials;
    int swapTrials;
    int fwdBwd;

    std::vector<std::string> circuits() const
    {
        std::vector<std::string> qasm;
        for (int k = 0; k < distinct; ++k)
            qasm.push_back(syntheticQasm(k, width, twoQubitGates, kSeed));
        return qasm;
    }

    /** The transpile request line for circuit #index. */
    std::string requestLine(int index, const std::string &qasm,
                            int request_id, bool lower = false,
                            double deadline_ms = 0.0) const
    {
        json::Value req = json::Value::object();
        req.set("id", request_id);
        req.set("op", "transpile");
        req.set("name", name + std::to_string(index));
        req.set("qasm", qasm);
        json::Value opts = json::Value::object();
        describeOptions(opts);
        opts.set(requestOption(Option::Lower).key, lower);
        if (deadline_ms > 0)
            opts.set(requestOption(Option::DeadlineMs).key, deadline_ms);
        req.set("options", std::move(opts));
        return req.dump(0);
    }

    /** The workload's slice of an artifact's `parameters` block. */
    void describe(json::Value &p) const
    {
        p.set("distinctCircuits", distinct);
        p.set("width", width);
        p.set("twoQubitGates", twoQubitGates);
        describeOptions(p);
    }

    /** The options every request of the mix carries, keyed as in one. */
    void describeOptions(json::Value &p) const
    {
        p.set(requestOption(Option::Topology).key, topology);
        p.set(requestOption(Option::Trials).key, trials);
        p.set(requestOption(Option::SwapTrials).key, swapTrials);
        p.set(requestOption(Option::FwdBwd).key, fwdBwd);
        p.set(requestOption(Option::Seed).key, kSeed);
        p.set(requestOption(Option::Aggression).key, kAggression);
    }
};

/** `serve-bench`: 8 clients x 6 drive requests over this mix. */
constexpr Workload kTraffic = {"traffic", 4, 5, 18, "grid3x3", 4, 2, 2};
constexpr int kClients = 8;
constexpr int kRequestsPerClient = 6;

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
runTraffic(const std::string &socket_path, std::ostream &log)
{
    const Workload &w = kTraffic;
    const bool overSocket = !socket_path.empty();

    // The in-process engine (unused over a socket). Its default memo
    // holds the whole distinct set, so drive-phase hits are exact.
    std::unique_ptr<Engine> engine;
    if (!overSocket)
        engine = std::make_unique<Engine>(EngineOptions{});

    // call(): one request line -> one response line, whatever the
    // transport. Over the socket each thread makes its own client.
    auto makeCall = [&]() -> std::function<std::string(const std::string &)> {
        if (!overSocket) {
            Engine *e = engine.get();
            return [e](const std::string &line) { return e->handle(line); };
        }
        auto client = std::make_shared<SocketClient>(socket_path);
        return [client](const std::string &line) {
            return client->roundTrip(line);
        };
    };

    const std::vector<std::string> qasm = w.circuits();

    // --- phase 1: warmup (sequential; every circuit misses once) ----------
    log << "mirage: serve-bench warmup: " << w.distinct
        << " distinct circuits on " << w.topology << "...\n";
    auto warmCall = makeCall();
    std::vector<std::string> referenceReports(size_t(w.distinct));
    uint64_t warmupMisses = 0, warmupErrors = 0;
    uint64_t heuristicEvals = 0, swapCandidates = 0, mirrorOutlooks = 0;
    const auto warmupStart = Clock::now();
    for (int k = 0; k < w.distinct; ++k) {
        const std::string response =
            warmCall(w.requestLine(k, qasm[size_t(k)], k));
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
    const int driveTotal = kClients * kRequestsPerClient;
    log << "mirage: serve-bench drive: " << kClients << " clients x "
        << kRequestsPerClient << " requests...\n";
    std::vector<std::thread> clients;
    std::mutex mergeMutex;
    std::vector<double> latenciesMs;
    latenciesMs.reserve(size_t(driveTotal));
    uint64_t driveHits = 0, driveErrors = 0;
    bool bitIdentical = true;
    const auto driveStart = Clock::now();
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            auto call = makeCall();
            std::vector<double> local;
            local.reserve(size_t(kRequestsPerClient));
            uint64_t hits = 0, errors = 0;
            bool identical = true;
            for (int j = 0; j < kRequestsPerClient; ++j) {
                const int k = (i + j) % w.distinct;
                const std::string line =
                    w.requestLine(k, qasm[size_t(k)], 1000 + i * 1000 + j);
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
        p.set("clients", kClients);
        p.set("requestsPerClient", kRequestsPerClient);
        w.describe(p);
        p.set(requestOption(Option::Lower).key, false);
        doc.set("parameters", std::move(p));
    }
    {
        // Exact, machine- and thread-count-invariant: what --check
        // gates. A drift here is a behavior change, never noise.
        json::Value c = json::Value::object();
        c.set("requests", uint64_t(w.distinct) + uint64_t(driveTotal));
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
    log << "mirage: serve-bench: " << (w.distinct + driveTotal)
        << " requests, " << driveHits << "/" << driveTotal
        << " drive hits, bitIdentical="
        << (bitIdentical ? "true" : "false") << "\n";
    return doc;
}

// --- chaos harness ----------------------------------------------------------

namespace {

/**
 * `serve-bench --chaos`: 200 requests over this mix. Every 5th request
 * asks for lowering, which crosses fit.converge, the most invasive
 * injection point; every 7th of the others carries a 1 ms deadline.
 * The run passes only if at least 6 fault kinds were injected.
 */
constexpr Workload kChaos = {"chaos", 6, 4, 8, "grid2x2", 2, 1, 1};
constexpr int kChaosRequests = 200;
constexpr int kLowerEvery = 5;
constexpr int kDeadlineEvery = 7;
constexpr double kDeadlineMs = 1.0;
constexpr int kRequireFaultKinds = 6;
/** In-flight miss bound of the in-process server under test. */
constexpr int kChaosMaxQueue = 64;

/**
 * Fault schedule of the in-process server under test: every named
 * injection point in common/fault.hh fires (catalog.load and
 * cache.save always; fit.converge at 1/3 so some lowers succeed and
 * the library save path runs; the transport points at low rates).
 */
constexpr const char *kDefaultChaosFaults =
    "seed=7,catalog.load=1/1,cache.save=1/1,fit.converge=1/3,"
    "serve.accept=1/5,serve.read=1/11,serve.write=1/13,queue.admit=1/7";

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
    const Workload &w = kChaos;
    const bool external = !o.socketPath.empty();
    std::string workDir = o.workDir;
    if (workDir.empty())
        workDir = "/tmp/mirage-chaos-" + std::to_string(::getpid());
    ::mkdir(workDir.c_str(), 0755);

    const std::vector<std::string> qasm = w.circuits();

    // --- fault-free references -------------------------------------------
    // Every SUCCESSFUL chaos response must be byte-identical to these:
    // faults may fail a request, never corrupt one.
    fault::disarm();
    log << "mirage: chaos: computing " << w.distinct
        << " fault-free reference reports...\n";
    std::vector<std::string> reference(size_t(w.distinct));
    {
        EngineOptions ropts;
        ropts.catalogPath = "none";
        Engine ref(ropts);
        for (int k = 0; k < w.distinct; ++k) {
            json::Value doc = json::parse(
                ref.handle(w.requestLine(k, qasm[size_t(k)], k)));
            if (!doc["ok"].asBool())
                throw ServeError(
                    "chaos: fault-free reference request failed: " +
                    doc.dump(0));
            reference[size_t(k)] = doc["report"].dump(0);
        }
    }

    // --- the server under test -------------------------------------------
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

        fault::arm(kDefaultChaosFaults);
        disarmGuard.active = true;

        EngineOptions eopts;
        eopts.catalogPath = catalogPath;
        eopts.cacheDir = workDir; // shutdown save crosses cache.save
        eopts.maxQueue = kChaosMaxQueue;
        engine = std::make_unique<Engine>(eopts);
        catalogDegraded =
            engine->catalogLoad().status !=
            decomp::EquivalenceLibrary::CacheLoadStatus::Ok;
        socketPath = workDir + "/chaos.sock";
        server = std::make_unique<SocketServer>(*engine, socketPath);
        server->start();
        serverThread = std::thread([&server] { server->run(); });
        log << "mirage: chaos: server up at " << socketPath
            << " under schedule '" << kDefaultChaosFaults << "'\n";
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
    for (int i = 0; i < kChaosRequests; ++i) {
        const int k = i % w.distinct;
        const bool lower = i % kLowerEvery == kLowerEvery - 1;
        const bool withDeadline =
            !lower && i % kDeadlineEvery == kDeadlineEvery - 1;
        loweredRequests += lower ? 1 : 0;
        deadlineRequests += withDeadline ? 1 : 0;
        json::Value doc = json::parse(client.call(w.requestLine(
            k, qasm[size_t(k)], i, lower, withDeadline ? kDeadlineMs : 0.0)));
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
                      faultKinds >= uint64_t(kRequireFaultKinds);

    json::Value doc = json::Value::object();
    doc.set("schemaVersion", kProtocolVersion);
    doc.set("kind", kServeChaosKind);
    {
        json::Value p = json::Value::object();
        p.set("requests", kChaosRequests);
        w.describe(p);
        p.set("lowerEvery", kLowerEvery);
        p.set("deadlineEvery", kDeadlineEvery);
        p.set(requestOption(Option::DeadlineMs).key, kDeadlineMs);
        p.set("requireFaultKinds", kRequireFaultKinds);
        p.set("faults", external ? "<server-side>" : kDefaultChaosFaults);
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

    log << "mirage: chaos: " << kChaosRequests << " requests, " << okCount
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
