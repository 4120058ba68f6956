/**
 * @file
 * apbench_serve: the closed-loop load generator for the serve workloads.
 *
 *   apbench_serve --apserved PATH --socket NAME --seed N --apps A[,B...]
 *                 --warmup W --seconds T --out FILE [--trace FILE]
 *
 * One process with one thread and one connection per tenant (at most
 * 4). Each connection opens a stream of its tenant, sends a 256 KiB
 * document as 16 KiB Feeds, closes the stream and goes on with the next
 * document. It waits for each reply before sending again (closed loop).
 * Documents come from a pool of 8 per tenant, made from the tenant's
 * InputSpec and --seed. The automata come from SPARSEAP_SEED, which the
 * daemon reads from the same environment.
 *
 * Order of a run:
 *  1. Generate the automata and documents; compute each document's
 *     reference digest with a whole-input Engine::run (4 threads).
 *  2. Start apserved 5 times; each set-up time runs from spawn to the
 *     first answered Ping. The last instance serves the run.
 *  3. W seconds of warm-up, then a T second window bracketed by two
 *     STATS requests, sent on a connection of their own.
 *     VmHWM of the daemon is read at the end of the window.
 *  4. Stop, close open streams, stop the daemon.
 *  5. With --trace: replay the run's requests in completion order in
 *     this thread, each through the codec and an in-process
 *     MatchService and then through a raw EngineSession, for at most T
 *     seconds; then time Engine::run per pinned core.
 *
 * Correctness: the digest of every report a document got back (feeds +
 * close, in any order) must equal its reference digest. Documents still
 * in flight when the run stops are closed unchecked.
 *
 * The result is one JSON object in --out; run.py turns it into metrics.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/sparseap.h"
#include "serve/client.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "sim/session.h"

using namespace sparseap;
using apbench::Clock;
using apbench::Json;
using apbench::ScopedSpan;
using apbench::SpanLog;
using serve::ServeClient;

namespace {

/** Load shape every serve workload shares. */
constexpr size_t kMaxTenants = 4;        ///< one connection and thread each
constexpr size_t kDocBytes = 256 * 1024; ///< a stream closes after this
constexpr size_t kFeedBytes = 16 * 1024; ///< bytes per Feed request
constexpr size_t kPool = 8;              ///< documents per tenant
constexpr size_t kSetups = 5;            ///< daemon starts timed per run

struct Config
{
    std::string apserved;
    std::string socket;
    uint64_t seed = 0; ///< of the document pool
    std::vector<std::string> apps;
    double warmup = 0.0;
    double seconds = 0.0;
    std::string out;
    std::string trace;
};

/** One tenant: its automaton, document pool and reference digests. */
struct Tenant
{
    std::string name;
    std::shared_ptr<FlatAutomaton> fa;
    std::vector<std::vector<uint8_t>> docs;
    std::vector<uint64_t> refDigest;
};

uint64_t
nameHash(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Run @p fn(i) for i in [0, n) on up to four threads. */
template <typename Fn>
void
parallelIndex(size_t n, Fn fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < std::min<size_t>(4, n); ++t) {
        threads.emplace_back([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

std::vector<Tenant>
makeTenants(const Config &cfg)
{
    const Options &opts = globalOptions();
    std::vector<Tenant> tenants(cfg.apps.size());
    for (size_t t = 0; t < cfg.apps.size(); ++t) {
        Tenant &tn = tenants[t];
        tn.name = cfg.apps[t];
        Workload w =
            generateWorkload(tn.name, opts.seed, opts.scalePercent);
        tn.fa = std::make_shared<FlatAutomaton>(w.app);
        // apserved builds the DFA at load; do the same so sessions here
        // see the automaton in the state the daemon's sessions do.
        tn.fa->ensureHotDfa();
        Rng rng(cfg.seed ^ nameHash(tn.name) ^ 0x61706265ull);
        for (size_t d = 0; d < kPool; ++d)
            tn.docs.push_back(synthesizeInput(w.input, kDocBytes, rng));
        tn.refDigest.resize(kPool);
    }
    parallelIndex(tenants.size() * kPool, [&](size_t i) {
        Tenant &tn = tenants[i / kPool];
        const size_t d = i % kPool;
        Engine engine(*tn.fa, EngineMode::Auto);
        tn.refDigest[d] =
            apbench::reportDigest(engine.run(tn.docs[d]).reports);
    });
    return tenants;
}

// ------------------------------------------------------------ daemon --

/** The apserved child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    spawn(const Config &cfg, const std::string &log_path)
    {
        std::string apps;
        for (const std::string &a : cfg.apps)
            apps += (apps.empty() ? "" : ",") + a;
        ::unlink(cfg.socket.c_str());
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0)
            return false;
        if (pid_ == 0) {
            // Die with the load generator, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (::getppid() != parent)
                ::_exit(127);
            const int fd = ::open(log_path.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execl(cfg.apserved.c_str(), cfg.apserved.c_str(), "--socket",
                    cfg.socket.c_str(), "--apps", apps.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        return true;
    }

    /** Poll until a Ping is answered; @return false after @p timeout_s. */
    bool
    waitReady(const std::string &socket, double timeout_s)
    {
        const auto t0 = Clock::now();
        while (apbench::micros(t0, Clock::now()) < timeout_s * 1e6) {
            if (exited())
                return false;
            ServeClient client;
            std::string error;
            if (client.connect(socket, &error) &&
                client.ping().status == ServeClient::Status::Ok)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    }

    pid_t pid() const { return pid_; }

    /**
     * SIGTERM, then SIGKILL after 10 s. @return true when the daemon
     * exited 0, or, with @p allow_term, died of the SIGTERM itself:
     * apserved installs its handler only after its socket answers, so a
     * SIGTERM right after the first Ping may meet the default action.
     */
    bool
    stop(bool allow_term = false)
    {
        if (pid_ <= 0)
            return true;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const auto t0 = Clock::now();
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (apbench::micros(t0, Clock::now()) > 10e6) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        if (WIFEXITED(status))
            return WEXITSTATUS(status) == 0;
        return allow_term && WIFSIGNALED(status) &&
               WTERMSIG(status) == SIGTERM;
    }

  private:
    bool
    exited()
    {
        int status = 0;
        if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return true;
        }
        return pid_ <= 0;
    }

    pid_t pid_ = -1;
};

// -------------------------------------------------------------- load --

enum class OpKind : uint8_t { Open, Feed, Close };

/** A completed request, logged for the traced replay. */
struct Op
{
    OpKind kind = OpKind::Feed;
    uint32_t tenant = 0;
    uint64_t request = 0;
    double endUs = 0.0;
    double us = 0.0; ///< socket round trip
    uint64_t stream = 0;
    uint32_t doc = 0;
    uint32_t offset = 0; ///< of the fed bytes in the document (Feed only)
    uint32_t len = 0;
};

struct Sample
{
    double us = 0.0;     ///< round trip
    double endUs = 0.0;  ///< completion, on the SpanLog epoch
    uint64_t bytes = 0;  ///< document bytes carried (Feed only)
    uint32_t tenant = 0; ///< index in --apps
};

/** Per-connection results, merged by main(). */
struct ConnResult
{
    std::vector<Sample> feeds;
    std::vector<Sample> opens;
    std::vector<Sample> closes;
    std::vector<Op> ops;
    uint64_t overload = 0;
    uint64_t retry = 0;
    uint64_t errors = 0;
    uint64_t transport = 0;
    /** Requests answered (any status) with their completion time. */
    std::vector<std::pair<double, bool>> outcomes;
    uint64_t docsChecked = 0;
    uint64_t docMismatches = 0;
    uint64_t reportsChecked = 0;
};

std::atomic<uint64_t> g_next_stream{1};
std::atomic<uint64_t> g_next_request{1};

class LoadThread
{
  public:
    LoadThread(const Tenant &tenant, uint32_t tenant_idx,
               ServeClient &client, const std::atomic<bool> &stop,
               SpanLog &spans, ConnResult &out)
        : tenant_(tenant), tenant_idx_(tenant_idx), client_(client),
          stop_(stop), spans_(spans), out_(out)
    {
    }

    void
    run()
    {
        while (!stop_.load(std::memory_order_relaxed)) {
            if (!openStream())
                return;
            while (offset_ < kDocBytes &&
                   !stop_.load(std::memory_order_relaxed)) {
                if (!feed())
                    return;
            }
            if (!closeStream(offset_ == kDocBytes))
                return;
        }
    }

  private:
    /** Count one answered request; @return true when it succeeded. */
    bool
    account(const ServeClient::Result &r, double end_us)
    {
        const bool ok = r.status == ServeClient::Status::Ok;
        out_.outcomes.emplace_back(end_us, ok);
        switch (r.status) {
        case ServeClient::Status::Ok:
            break;
        case ServeClient::Status::Overload:
            ++out_.overload;
            break;
        case ServeClient::Status::Retry:
            ++out_.retry;
            break;
        case ServeClient::Status::Error:
            ++out_.errors;
            std::fprintf(stderr, "apbench_serve: error reply: %s\n",
                         r.error.message.c_str());
            break;
        case ServeClient::Status::Transport:
            ++out_.transport;
            break;
        }
        return ok;
    }

    /**
     * Send one request through @p call until it gets an answer other
     * than Overload/Retry (those are counted, then resent after 1 ms).
     * A success is timed into @p samples and logged for the replay.
     * @return true on success
     */
    template <typename Call>
    bool
    exchange(const char *name, OpKind kind, std::vector<Sample> &samples,
             uint32_t len, Call &&call)
    {
        for (;;) {
            const uint64_t request = g_next_request++;
            ServeClient::Result r;
            const auto t0 = Clock::now();
            {
                ScopedSpan span(spans_, name, 0, request);
                r = call();
            }
            const auto t1 = Clock::now();
            const double end = apbench::micros(SpanLog::epoch(), t1);
            if (account(r, end)) {
                const double us = apbench::micros(t0, t1);
                samples.push_back({us, end, len, tenant_idx_});
                if (spans_.enabled())
                    out_.ops.push_back({kind, tenant_idx_, request, end, us,
                                        stream_, doc_,
                                        static_cast<uint32_t>(offset_),
                                        len});
                return true;
            }
            if (r.status != ServeClient::Status::Overload &&
                r.status != ServeClient::Status::Retry)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    bool
    openStream()
    {
        stream_ = g_next_stream++;
        doc_ = static_cast<uint32_t>(docs_started_++ % kPool);
        offset_ = 0;
        reports_ = {};
        return exchange("client.open", OpKind::Open, out_.opens, 0, [&] {
            return client_.open(tenant_.name, stream_);
        });
    }

    /** Close the stream; when @p check, compare its digest. */
    bool
    closeStream(bool check)
    {
        serve::ReportGroup tail;
        if (!exchange("client.close", OpKind::Close, out_.closes, 0, [&] {
                return client_.closeStream(tenant_.name, stream_, &tail);
            }))
            return false;
        if (check) {
            reports_.add(tail.reports);
            ++out_.docsChecked;
            out_.reportsChecked += reports_.count();
            if (reports_.value() != tenant_.refDigest[doc_])
                ++out_.docMismatches;
        }
        return true;
    }

    bool
    feed()
    {
        const serve::FeedEntry entry{
            stream_, {tenant_.docs[doc_].data() + offset_, kFeedBytes}};
        std::vector<serve::ReportGroup> groups;
        if (!exchange("client.feed", OpKind::Feed, out_.feeds, kFeedBytes,
                      [&] {
                          return client_.feedMany(tenant_.name,
                                                  {&entry, 1}, &groups);
                      }))
            return false;
        // kFlagMore splitting may give the stream several groups.
        for (const serve::ReportGroup &g : groups)
            reports_.add(g.reports);
        offset_ += kFeedBytes;
        return true;
    }

    const Tenant &tenant_;
    uint32_t tenant_idx_;
    ServeClient &client_;
    const std::atomic<bool> &stop_;
    SpanLog &spans_;
    ConnResult &out_;
    uint64_t stream_ = 0;
    uint32_t doc_ = 0;
    size_t offset_ = 0;
    apbench::ReportDigest reports_; ///< of the document so far
    size_t docs_started_ = 0;
};

// ------------------------------------------------------------ replay --

/** Per-request timings of the traced replay (see file comment). */
struct ReplayResult
{
    size_t feeds = 0; ///< Feed requests replayed
    std::vector<double> socketUs; ///< their round trips over the socket
    std::vector<double> codecUs;
    std::vector<double> serviceUs;
    std::vector<double> sessionUs;
    std::vector<double> wireBytes;
    std::vector<uint64_t> tenantBytes; ///< session bytes per tenant
    double sessionSeconds = 0.0;
    uint64_t dfaBytes = 0;
    uint64_t denseBytes = 0;
    uint64_t sparseBytes = 0;
    uint64_t cycles = 0;
    uint64_t skipped = 0;
};

std::span<const uint8_t>
opBytes(const std::vector<Tenant> &tenants, const Op &op)
{
    const std::vector<uint8_t> &doc = tenants[op.tenant].docs[op.doc];
    return {doc.data() + op.offset, op.len};
}

/**
 * One logged request through the codec and @p service, the daemon's
 * path minus the socket: client encode, server decode, feedMany,
 * server encode, client decode.
 */
void
serviceStep(serve::MatchService &service, const std::vector<Tenant> &tenants,
            const Op &op, SpanLog &log, ReplayResult *res)
{
    const std::string &tenant = tenants[op.tenant].name;
    if (op.kind == OpKind::Open) {
        ScopedSpan span(log, "service.open", 0, op.request);
        service.open(tenant, op.stream);
        return;
    }
    if (op.kind == OpKind::Close) {
        ScopedSpan span(log, "service.close", 0, op.request);
        serve::ReportGroup g;
        service.close(tenant, op.stream, &g);
        return;
    }

    ScopedSpan root(log, "replay.feed", 0, op.request);
    std::vector<uint8_t> request_frame;
    const auto c0 = Clock::now();
    {
        ScopedSpan span(log, "codec.encode_request", root.id(), op.request);
        serve::FeedRequest req;
        req.tenant = tenant;
        req.entries.push_back({op.stream, opBytes(tenants, op)});
        std::vector<uint8_t> payload;
        serve::WireWriter w(&payload);
        serve::encodeFeedRequest(&w, req);
        serve::appendFrame(&request_frame, serve::MsgType::Feed, 0,
                           op.request, payload);
    }
    serve::Frame frame;
    serve::FeedRequest decoded;
    {
        ScopedSpan span(log, "codec.decode_request", root.id(), op.request);
        serve::FrameReader reader;
        reader.append(request_frame);
        std::string error;
        reader.next(&frame, &error);
        serve::WireReader r(frame.payload);
        serve::decodeFeedRequest(&r, &decoded);
    }
    const auto c1 = Clock::now();
    std::vector<serve::ReportGroup> groups;
    {
        ScopedSpan span(log, "service.feed_many", root.id(), op.request);
        service.feedMany(tenant, decoded.entries, &groups);
    }
    const auto c2 = Clock::now();
    std::vector<uint8_t> reply_frame;
    {
        ScopedSpan span(log, "codec.encode_reply", root.id(), op.request);
        std::vector<uint8_t> payload;
        serve::WireWriter w(&payload);
        serve::encodeReportGroups(&w, groups);
        serve::appendFrame(&reply_frame, serve::MsgType::Reports, 0,
                           op.request, payload);
    }
    {
        ScopedSpan span(log, "codec.decode_reply", root.id(), op.request);
        serve::FrameReader reader;
        reader.append(reply_frame);
        serve::Frame reply;
        std::string error;
        reader.next(&reply, &error);
        serve::WireReader r(reply.payload);
        std::vector<serve::ReportGroup> out;
        serve::decodeReportGroups(&r, &out);
    }
    res->socketUs.push_back(op.us);
    res->serviceUs.push_back(apbench::micros(c1, c2));
    res->codecUs.push_back(apbench::micros(c0, c1) +
                           apbench::micros(c2, Clock::now()));
    res->wireBytes.push_back(
        static_cast<double>(request_frame.size() + reply_frame.size()));
    ++res->feeds;
}

/**
 * The same requests through raw EngineSessions, one per stream and
 * recycled per tenant like MatchService's pool, without its table,
 * locks or tenant fold. The feed time per request is what feedMany's
 * time is compared against.
 */
class SessionReplay
{
  public:
    explicit SessionReplay(const std::vector<Tenant> &tenants)
        : tenants_(tenants), pools_(tenants.size())
    {
    }

    void
    step(const Op &op, SpanLog &log, ReplayResult *res)
    {
        if (op.kind == OpKind::Open) {
            std::unique_ptr<EngineSession> &s = streams_[op.stream];
            s = take(op.tenant);
            s->restart();
            return;
        }
        if (op.kind == OpKind::Close) {
            auto it = streams_.find(op.stream);
            recycle(op.tenant, std::move(it->second));
            streams_.erase(it);
            return;
        }

        EngineSession &s = *streams_.at(op.stream);
        const SessionStats before = s.stats();
        const auto f0 = Clock::now();
        {
            ScopedSpan span(log, "session.feed", 0, op.request);
            s.feed(opBytes(tenants_, op));
        }
        const double feed_us = apbench::micros(f0, Clock::now());
        res->sessionUs.push_back(feed_us);
        res->sessionSeconds += feed_us / 1e6;

        s.takeReports();
        const SessionStats &after = s.stats();
        res->tenantBytes[op.tenant] += op.len;
        // Classified like the service's per-tenant fold: the feed's
        // bytes go to the phase the session ended the feed in.
        if (s.dfaPhase())
            res->dfaBytes += op.len;
        else if (s.resolvedMode() == EngineMode::Dense)
            res->denseBytes += op.len;
        else
            res->sparseBytes += op.len;
        res->cycles += after.cycles - before.cycles;
        res->skipped += after.skippedSymbols - before.skippedSymbols;
    }

  private:
    std::unique_ptr<EngineSession>
    take(uint32_t t)
    {
        if (pools_[t].empty())
            return std::make_unique<EngineSession>(*tenants_[t].fa,
                                                   SessionConfig{});
        std::unique_ptr<EngineSession> s = std::move(pools_[t].back());
        pools_[t].pop_back();
        return s;
    }

    void
    recycle(uint32_t t, std::unique_ptr<EngineSession> s)
    {
        if (pools_[t].size() < defaults_.sessionPoolSize)
            pools_[t].push_back(std::move(s));
    }

    const std::vector<Tenant> &tenants_;
    const serve::MatchServiceConfig defaults_;
    std::map<uint64_t, std::unique_ptr<EngineSession>> streams_;
    std::vector<std::vector<std::unique_ptr<EngineSession>>> pools_;
};

/**
 * Replay @p ops (completion order) through the codec + MatchService
 * and, right after each one, through a raw session, so the two timings
 * of a request are taken side by side; stop when @p budget_s is spent.
 * @return the number of ops replayed
 */
size_t
replay(const std::vector<Tenant> &tenants, const std::vector<Op> &ops,
       double budget_s, SpanLog &log, ReplayResult *res)
{
    serve::MatchService service; // the daemon's default configuration
    for (const Tenant &t : tenants)
        service.addTenant(t.name, t.fa);
    SessionReplay sessions(tenants);
    res->tenantBytes.assign(tenants.size(), 0);
    const auto t_begin = Clock::now();
    size_t n = 0;
    for (; n < ops.size(); ++n) {
        if (apbench::micros(t_begin, Clock::now()) > budget_s * 1e6)
            break;
        serviceStep(service, tenants, ops[n], log, res);
        sessions.step(ops[n], log, res);
    }
    return n;
}

/**
 * Engine::run per pinned core over the first document of each tenant,
 * written to @p j as one {tenant, mode, bytes, seconds} row each.
 */
void
timeCores(const std::vector<Tenant> &tenants, Json &j)
{
    const EngineMode modes[] = {EngineMode::Sparse, EngineMode::Dense,
                                EngineMode::Dfa};
    j.openArray("cores");
    for (const Tenant &t : tenants) {
        for (EngineMode mode : modes) {
            Engine engine(*t.fa, mode);
            const auto t0 = Clock::now();
            const SimResult r = engine.run(t.docs[0]);
            const double s = apbench::micros(t0, Clock::now()) / 1e6;
            j.open()
                .str("tenant", t.name)
                .str("mode", engineModeName(mode))
                .num("bytes", uint64_t{t.docs[0].size()})
                .num("seconds", s)
                .num("reports_ok",
                     uint64_t{apbench::reportDigest(r.reports) ==
                              t.refDigest[0]})
                .close();
        }
    }
    j.closeArray();
}

// -------------------------------------------------------------- main --

void
writeStats(Json &j, const char *key, const serve::StatsReply &s)
{
    j.open(key);
    for (const auto &[name, v] : s.counters)
        if (name.rfind("serve.", 0) == 0)
            j.num(name.c_str(), v);
    j.close();
}

/**
 * The round trips of @p v that completed inside [w0, w1] as "<key>_us";
 * with @p detail also, in the same order, their completion times in
 * seconds from w0 ("<key>_end_s"), bytes and tenants.
 */
void
writeSamples(Json &j, const std::string &key, std::vector<Sample> v,
             double w0, double w1, bool detail = false)
{
    std::sort(v.begin(), v.end(), [](const Sample &a, const Sample &b) {
        return a.endUs < b.endUs;
    });
    std::vector<double> us, end_s, bytes, tenant;
    for (const Sample &s : v) {
        if (s.endUs < w0 || s.endUs > w1)
            continue;
        us.push_back(s.us);
        end_s.push_back((s.endUs - w0) / 1e6);
        bytes.push_back(static_cast<double>(s.bytes));
        tenant.push_back(s.tenant);
    }
    j.nums((key + "_us").c_str(), us);
    if (detail) {
        j.nums((key + "_end_s").c_str(), end_s)
            .nums((key + "_bytes").c_str(), bytes)
            .nums((key + "_tenant").c_str(), tenant);
    }
}

bool
parseArgs(int argc, char **argv, Config *cfg)
{
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0)
            return false;
        kv[argv[i] + 2] = argv[i + 1];
    }
    auto take = [&](const char *key, std::string *out) {
        auto it = kv.find(key);
        if (it == kv.end())
            return false;
        *out = it->second;
        kv.erase(it);
        return true;
    };
    auto real = [&](const char *key, double *out) {
        std::string v;
        if (!take(key, &v))
            return false;
        *out = std::stod(v);
        return *out >= 0.0;
    };
    std::string apps, seed;
    const bool ok =
        take("apserved", &cfg->apserved) && take("socket", &cfg->socket) &&
        take("seed", &seed) && take("apps", &apps) &&
        real("warmup", &cfg->warmup) && real("seconds", &cfg->seconds) &&
        take("out", &cfg->out);
    take("trace", &cfg->trace);
    if (ok)
        cfg->seed = std::stoull(seed);
    cfg->apps = splitString(apps, ',');
    return ok && kv.empty() && !cfg->apps.empty() &&
           cfg->apps.size() <= kMaxTenants;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    try {
        if (!parseArgs(argc, argv, &cfg)) {
            std::fprintf(stderr, "apbench_serve: bad arguments (see the "
                                 "file comment of src/serve.cpp)\n");
            return 2;
        }
    } catch (const std::exception &) {
        std::fprintf(stderr, "apbench_serve: bad numeric argument\n");
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);
    const bool tracing = !cfg.trace.empty();

    const auto r0 = Clock::now();
    std::vector<Tenant> tenants = makeTenants(cfg);
    Json j;
    j.open().num("reference_s", apbench::micros(r0, Clock::now()) / 1e6);

    // Set-up: spawn -> first Ping answered, several times.
    const std::string log_path = cfg.out + ".apserved.log";
    Daemon daemon;
    std::vector<double> setup_s;
    for (size_t k = 0; k < kSetups; ++k) {
        if (k > 0 && !daemon.stop(true)) {
            std::fprintf(stderr, "apbench_serve: apserved exited badly\n");
            return 1;
        }
        const auto s0 = Clock::now();
        if (!daemon.spawn(cfg, log_path) ||
            !daemon.waitReady(cfg.socket, 120.0)) {
            std::fprintf(stderr, "apbench_serve: apserved did not come "
                                 "up (see %s)\n",
                         log_path.c_str());
            return 1;
        }
        setup_s.push_back(apbench::micros(s0, Clock::now()) / 1e6);
    }
    j.nums("setup_s", setup_s);

    // One connection per tenant for the load, one for STATS.
    const size_t n_conns = tenants.size();
    std::vector<std::unique_ptr<ServeClient>> conns;
    for (size_t c = 0; c <= n_conns; ++c) {
        conns.push_back(std::make_unique<ServeClient>());
        std::string error;
        if (!conns.back()->connect(cfg.socket, &error)) {
            std::fprintf(stderr, "apbench_serve: %s\n", error.c_str());
            return 1;
        }
    }
    ServeClient &stats_conn = *conns.back();

    std::atomic<bool> stop{false};
    std::vector<ConnResult> results(n_conns);
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (size_t c = 0; c < n_conns; ++c)
        logs.push_back(std::make_unique<SpanLog>(
            tracing, static_cast<uint32_t>(c + 1)));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n_conns; ++c) {
        threads.emplace_back([&, c] {
            LoadThread(tenants[c], static_cast<uint32_t>(c), *conns[c],
                       stop, *logs[c], results[c])
                .run();
        });
    }

    auto stats = [&](serve::StatsReply *out) {
        return stats_conn.stats(out).status == ServeClient::Status::Ok;
    };
    auto nowUs = [] {
        return apbench::micros(SpanLog::epoch(), Clock::now());
    };
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg.warmup));
    serve::StatsReply stats0, stats1;
    const bool stats0_ok = stats(&stats0);
    const double w0 = nowUs();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg.seconds));
    const double w1 = nowUs();
    const uint64_t hwm = apbench::vmHwmKiB(std::to_string(daemon.pid()));
    const bool stats1_ok = stats(&stats1);
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    conns.clear();
    const bool clean_exit = daemon.stop();

    ConnResult all;
    for (ConnResult &r : results) {
        auto append = [](auto &dst, auto &src) {
            dst.insert(dst.end(), src.begin(), src.end());
        };
        append(all.feeds, r.feeds);
        append(all.opens, r.opens);
        append(all.closes, r.closes);
        append(all.outcomes, r.outcomes);
        append(all.ops, r.ops);
        all.overload += r.overload;
        all.retry += r.retry;
        all.errors += r.errors;
        all.transport += r.transport;
        all.docsChecked += r.docsChecked;
        all.docMismatches += r.docMismatches;
        all.reportsChecked += r.reportsChecked;
    }
    uint64_t window_bytes = 0;
    for (const Sample &s : all.feeds)
        if (s.endUs >= w0 && s.endUs <= w1)
            window_bytes += s.bytes;
    uint64_t attempted = 0, failed = 0;
    for (const auto &[end, ok] : all.outcomes) {
        if (end >= w0 && end <= w1) {
            ++attempted;
            failed += ok ? 0 : 1;
        }
    }

    j.num("window_s", (w1 - w0) / 1e6)
        .num("window_bytes", window_bytes)
        .num("attempted", attempted)
        .num("failed", failed)
        .num("overload", all.overload)
        .num("retry", all.retry)
        .num("errors", all.errors)
        .num("transport", all.transport)
        .num("docs_checked", all.docsChecked)
        .num("doc_mismatches", all.docMismatches)
        .num("reports_checked", all.reportsChecked)
        .num("vmhwm_kib", hwm)
        .num("stats_ok", uint64_t{stats0_ok && stats1_ok})
        .num("clean_exit", uint64_t{clean_exit});
    writeSamples(j, "feed", all.feeds, w0, w1, true);
    writeSamples(j, "open", all.opens, w0, w1);
    writeSamples(j, "close", all.closes, w0, w1);
    writeStats(j, "stats0", stats0);
    writeStats(j, "stats1", stats1);

    if (tracing) {
        std::sort(all.ops.begin(), all.ops.end(),
                  [](const Op &a, const Op &b) { return a.endUs < b.endUs; });
        SpanLog replay_log(true, 100);
        ReplayResult rr;
        const size_t n = replay(tenants, all.ops, cfg.seconds, replay_log,
                                &rr);
        uint64_t session_bytes = 0;
        j.open("replay")
            .num("ops", uint64_t{n})
            .num("ops_logged", uint64_t{all.ops.size()})
            .num("feeds", uint64_t{rr.feeds})
            .nums("socket_us", rr.socketUs)
            .nums("codec_us", rr.codecUs)
            .nums("service_us", rr.serviceUs)
            .nums("session_us", rr.sessionUs)
            .nums("wire_bytes", rr.wireBytes)
            .open("tenant_bytes");
        for (size_t t = 0; t < tenants.size(); ++t) {
            j.num(tenants[t].name.c_str(), rr.tenantBytes[t]);
            session_bytes += rr.tenantBytes[t];
        }
        j.close()
            .num("session_bytes", session_bytes)
            .num("session_seconds", rr.sessionSeconds)
            .num("dfa_bytes", rr.dfaBytes)
            .num("dense_bytes", rr.denseBytes)
            .num("sparse_bytes", rr.sparseBytes)
            .num("cycles", rr.cycles)
            .num("skipped", rr.skipped);
        timeCores(tenants, j);
        j.close();
        std::vector<const SpanLog *> all_logs;
        for (const auto &l : logs)
            all_logs.push_back(l.get());
        all_logs.push_back(&replay_log);
        if (!apbench::writeChromeTrace(cfg.trace, all_logs)) {
            std::fprintf(stderr, "apbench_serve: cannot write %s\n",
                         cfg.trace.c_str());
            return 1;
        }
    }
    j.close();
    return apbench::writeFile(cfg.out, j.text()) ? 0 : 1;
}
