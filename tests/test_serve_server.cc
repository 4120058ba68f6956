/**
 * @file
 * End-to-end daemon tests over a real Unix-domain socket: the identity
 * gate (socket reports == whole-input Engine::run, across workloads,
 * concurrent client streams and worker counts), deterministic admission
 * semantics (queue depth, tenant caps, deadline sheds — unit-tested on
 * AdmissionQueue with an injected clock), and the protocol robustness
 * battery: truncated frames, oversized prefixes, unknown types and
 * mid-stream disconnects must never crash the server or leak a session
 * (the table must drain to empty after every teardown).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/options.h"
#include "common/rng.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/engine.h"
#include "store/format.h"
#include "support/naive_sim.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "workloads/registry.h"

using namespace sparseap;
using namespace sparseap::serve;

namespace {

uint64_t
sortedDigest(ReportList reports)
{
    std::sort(reports.begin(), reports.end());
    store::DigestBuilder d;
    for (const Report &r : reports) {
        d.add(r.position);
        d.add(r.state);
    }
    return d.digest();
}

std::string
tempSocketPath(const char *tag)
{
    return std::string("/tmp/sparseap-test-") + tag + "." +
           std::to_string(::getpid()) + ".sock";
}

/** Wait until the session table drains (disconnect sweeps are async). */
bool
waitForEmptyTable(const MatchService &service, int timeout_ms = 5000)
{
    for (int waited = 0; waited < timeout_ms; ++waited) {
        if (service.openStreamCount() == 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return service.openStreamCount() == 0;
}

/** Raw socket (no ServeClient conveniences) for fault injection. */
struct RawConn
{
    int fd = -1;
    FrameReader reader;

    explicit RawConn(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool send(std::span<const uint8_t> bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read one frame (5s budget). @return false on close/timeout. */
    bool readFrame(Frame *out)
    {
        timeval tv{5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        for (;;) {
            std::string error;
            if (reader.next(out, &error) == FrameReader::Status::Ready)
                return true;
            uint8_t buf[4096];
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                return false;
            reader.append({buf, static_cast<size_t>(n)});
        }
    }
};

struct TestDaemon
{
    std::vector<std::shared_ptr<FlatAutomaton>> automata;
    std::vector<std::string> names;
    std::vector<std::vector<uint8_t>> inputs;
    /** Per tenant: bytes that match its first pattern (BFS). */
    std::vector<std::vector<uint8_t>> matches;
    std::unique_ptr<MatchService> service;
    std::unique_ptr<Server> server;
    std::string socketPath;

    explicit TestDaemon(std::initializer_list<const char *> abbrs,
                        size_t input_bytes = 16 * 1024)
    {
        Rng rng(321);
        for (const char *abbr : abbrs) {
            Workload w = generateWorkload(abbr, 7, 5);
            automata.push_back(std::make_shared<FlatAutomaton>(w.app));
            names.push_back(abbr);
            inputs.push_back(
                synthesizeInput(w.input, input_bytes, rng));
            matches.push_back(sparseap::testing::matchingBytes(w.app.nfa(0)));
        }
    }

    /** Plant tenant @p t's match every @p stride bytes of its input. */
    void
    plantMatches(size_t t, size_t stride)
    {
        for (size_t at = stride / 2; at + matches[t].size() <= inputs[t].size();
             at += stride)
            std::copy(matches[t].begin(), matches[t].end(),
                      inputs[t].begin() + at);
    }

    void start(const char *tag, ServerConfig scfg = {},
               MatchServiceConfig mcfg = {})
    {
        service = std::make_unique<MatchService>(mcfg);
        for (size_t i = 0; i < automata.size(); ++i)
            service->addTenant(names[i], automata[i]);
        socketPath = tempSocketPath(tag);
        scfg.socketPath = socketPath;
        server = std::make_unique<Server>(service.get(), scfg);
        std::string error;
        ASSERT_TRUE(server->start(&error)) << error;
    }

    ReportList wholeInputReports(size_t tenant) const
    {
        Engine engine(*automata[tenant], EngineMode::Auto);
        return engine.run(inputs[tenant]).reports;
    }

    uint64_t wholeInputDigest(size_t tenant) const
    {
        return sortedDigest(wholeInputReports(tenant));
    }
};

/** One client stream over its own connection; returns sorted digest. */
uint64_t
driveStream(const std::string &socket_path, const std::string &tenant,
            uint64_t stream_id, const std::vector<uint8_t> &input,
            size_t chunk)
{
    ServeClient client;
    std::string error;
    if (!client.connect(socket_path, &error))
        return 0;
    if (client.open(tenant, stream_id).status != ServeClient::Status::Ok)
        return 0;
    ReportList all;
    for (size_t off = 0; off < input.size(); off += chunk) {
        const size_t n = std::min(chunk, input.size() - off);
        ReportGroup group;
        if (client.feed(tenant, stream_id, {input.data() + off, n},
                        &group)
                .status != ServeClient::Status::Ok)
            return 0;
        all.insert(all.end(), group.reports.begin(), group.reports.end());
    }
    ReportGroup tail;
    if (client.closeStream(tenant, stream_id, &tail).status !=
        ServeClient::Status::Ok)
        return 0;
    all.insert(all.end(), tail.reports.begin(), tail.reports.end());
    return sortedDigest(std::move(all));
}

} // namespace

// ------------------------------------------------ admission semantics --

TEST(AdmissionQueue, DepthAndTenantCapsAreExact)
{
    AdmissionConfig config;
    config.queueDepth = 2;
    config.perTenantInFlight = 2;
    uint64_t now = 0;
    AdmissionQueue q(config, [&] { return now; });

    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Admitted);
    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Admitted);
    // Queue full (2 queued) → Overloaded for everyone; a full queue
    // makes admission impossible regardless of who asks.
    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Overloaded);
    EXPECT_EQ(q.tryEnqueue("b", nullptr), AdmitResult::Overloaded);

    AdmissionQueue::Item item;
    std::vector<AdmissionQueue::Item> shed;
    ASSERT_TRUE(q.pop(&item, &shed));
    EXPECT_TRUE(shed.empty());
    // Room in the queue now, but "a" was dequeued without finish(): it
    // still holds 2 in-flight slots → TenantBusy (retry, not overload).
    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::TenantBusy);
    q.finish("a");
    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Admitted);

    const AdmissionStats stats = q.stats();
    EXPECT_EQ(stats.requests, 6u);
    EXPECT_EQ(stats.admitted, 3u);
    EXPECT_EQ(stats.overloaded, 2u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.shed, 3u);
}

TEST(AdmissionQueue, DeadlineShedsAtDequeue)
{
    AdmissionConfig config;
    config.queueDepth = 8;
    config.deadlineMicros = 100;
    uint64_t now = 0;
    AdmissionQueue q(config, [&] { return now; });

    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Admitted);
    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Admitted);
    now = 50;
    EXPECT_EQ(q.tryEnqueue("b", nullptr), AdmitResult::Admitted);

    now = 200; // first two are 200us old (> 100), third is 150us old
    AdmissionQueue::Item item;
    std::vector<AdmissionQueue::Item> shed;
    q.close(); // so a fully-shed queue can't block the pop
    ASSERT_FALSE(q.pop(&item, &shed));
    EXPECT_EQ(shed.size(), 3u);
    EXPECT_EQ(q.stats().shed, 3u);
    // Shed items released their tenant slots.
    EXPECT_EQ(q.inFlight("a"), 0u);
    EXPECT_EQ(q.inFlight("b"), 0u);
}

TEST(AdmissionQueue, DeadlineKeepsFreshItems)
{
    AdmissionConfig config;
    config.deadlineMicros = 100;
    uint64_t now = 0;
    AdmissionQueue q(config, [&] { return now; });
    EXPECT_EQ(q.tryEnqueue("a", nullptr), AdmitResult::Admitted);
    now = 500;
    EXPECT_EQ(q.tryEnqueue("b", nullptr), AdmitResult::Admitted);
    now = 550;
    AdmissionQueue::Item item;
    std::vector<AdmissionQueue::Item> shed;
    ASSERT_TRUE(q.pop(&item, &shed));
    EXPECT_EQ(shed.size(), 1u); // "a" shed, "b" live
    EXPECT_EQ(item.tenant, "b");
}

// ----------------------------------------------------- identity gates --

TEST(ServeServer, EndToEndIdentityAcrossWorkloadsAndWorkers)
{
    // The acceptance gate: 5 workloads x 10 concurrent client streams,
    // two rounds, socket reports byte-identical (as sorted digests) to
    // whole-input Engine::run, independent of the worker count. Every
    // input carries planted matches of its first pattern (EM's
    // synthesized input never reports on its own), so no workload
    // compares empty streams. Under auto, Snort's first stream decides
    // it sparse and every stream opened after that builds or runs its
    // split. A core pinned by SPARSEAP_ENGINE never splits; every other
    // check holds.
    TestDaemon daemon({"Bro217", "Brill", "EM", "LV", "Snort"});
    const size_t tenants = daemon.names.size();
    for (size_t t = 0; t < tenants; ++t) {
        ASSERT_FALSE(daemon.matches[t].empty()) << daemon.names[t];
        daemon.plantMatches(t, 4096);
    }
    const std::string snort_split =
        telemetry::labeledName("serve.split_cycles", "Snort");
    const uint64_t split_before =
        telemetry::snapshot().counters[snort_split];
    for (const unsigned workers : {1u, 4u}) {
        ServerConfig scfg;
        scfg.workers = workers;
        daemon.start("identity", scfg);

        constexpr size_t kStreams = 10;
        for (size_t round = 0; round < 2; ++round) {
            std::vector<uint64_t> digests(kStreams);
            std::vector<std::thread> threads;
            for (size_t s = 0; s < kStreams; ++s) {
                threads.emplace_back([&, s] {
                    const size_t tenant = s % tenants;
                    digests[s] = driveStream(
                        daemon.socketPath, daemon.names[tenant],
                        round * kStreams + s + 1, daemon.inputs[tenant],
                        900 + 64 * s);
                });
            }
            for (std::thread &t : threads)
                t.join();
            for (size_t s = 0; s < kStreams; ++s)
                EXPECT_EQ(digests[s], daemon.wholeInputDigest(s % tenants))
                    << "stream " << s << " round " << round << " workers "
                    << workers;
        }

        EXPECT_EQ(daemon.service->openStreamCount(), 0u);
        EXPECT_EQ(daemon.server->admission().stats().shed, 0u);
        daemon.server->stop();
    }
    for (size_t t = 0; t < tenants; ++t) {
        const size_t n = daemon.wholeInputReports(t).size();
        std::printf("%s: %zu reports\n", daemon.names[t].c_str(), n);
        EXPECT_GT(n, 0u) << daemon.names[t];
    }
    if (globalOptions().engineMode == EngineMode::Auto) {
        EXPECT_GT(telemetry::snapshot().counters[snort_split],
                  split_before);
    }
}

TEST(ServeServer, ThirtyTwoConnectionsOnDfaTenants)
{
    // 32 concurrent client connections, 8 per tenant, on tenants whose
    // whole DFA is built before serving, as apserved builds it at load:
    // under auto every stream runs the table, and the socket reports
    // equal (as sorted digests) whole-input Engine::run, with planted
    // matches so that every tenant reports, and no shed at this load.
    TestDaemon daemon({"Bro217", "Brill", "EM", "LV"}, 64 * 1024);
    const size_t tenants = daemon.names.size();
    std::vector<uint64_t> dfa_before(tenants);
    for (size_t t = 0; t < tenants; ++t) {
        SCOPED_TRACE(daemon.names[t]);
        ASSERT_NE(daemon.automata[t]->ensureHotDfa(), nullptr);
        ASSERT_FALSE(daemon.matches[t].empty());
        daemon.plantMatches(t, 4096);
        EXPECT_GT(daemon.wholeInputReports(t).size(), 0u);
        dfa_before[t] = telemetry::snapshot().counters[telemetry::labeledName(
            "serve.dfa_cycles", daemon.names[t])];
    }
    ServerConfig scfg;
    scfg.workers = 4;
    daemon.start("dfa32", scfg);

    constexpr size_t kStreams = 32;
    std::vector<uint64_t> digests(kStreams);
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kStreams; ++s) {
        threads.emplace_back([&, s] {
            const size_t tenant = s % tenants;
            digests[s] = driveStream(daemon.socketPath, daemon.names[tenant],
                                     s + 1, daemon.inputs[tenant],
                                     16 * 1024);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (size_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(digests[s], daemon.wholeInputDigest(s % tenants))
            << "stream " << s;
    EXPECT_EQ(daemon.service->openStreamCount(), 0u);
    EXPECT_EQ(daemon.server->admission().stats().shed, 0u);
    daemon.server->stop();
    if (globalOptions().engineMode == EngineMode::Auto) {
        for (size_t t = 0; t < tenants; ++t)
            EXPECT_GT(telemetry::snapshot().counters[telemetry::labeledName(
                          "serve.dfa_cycles", daemon.names[t])],
                      dfa_before[t])
                << daemon.names[t];
    }
}

TEST(ServeServer, MatchAndStatsOverSocket)
{
    TestDaemon daemon({"Bro217"});
    daemon.start("match");

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.socketPath, &error)) << error;
    ReportGroup group;
    ASSERT_EQ(client.match("Bro217", daemon.inputs[0], &group).status,
              ServeClient::Status::Ok);
    EXPECT_EQ(sortedDigest(group.reports), daemon.wholeInputDigest(0));

    StatsReply stats;
    ASSERT_EQ(client.stats(&stats).status, ServeClient::Status::Ok);
    uint64_t feeds = 0;
    bool found = false;
    for (const auto &[key, value] : stats.counters) {
        if (key == "serve.feeds") {
            feeds = value;
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GE(feeds, 1u);

    EXPECT_EQ(client.match("nope", daemon.inputs[0], &group).status,
              ServeClient::Status::Error);
    daemon.server->stop();
}

// ------------------------------------------------- overload semantics --

TEST(ServeServer, TinyQueueShedsLoudlyAndNeverHangs)
{
    // Saturation test: queue depth 1, one worker, 8 hammering clients.
    // Overload/Retry responses must appear, every request must get
    // *some* response (the loop below would hang otherwise), and the
    // shed counter must account for every rejection.
    TestDaemon daemon({"Bro217"}, 4 * 1024);
    ServerConfig scfg;
    scfg.workers = 1;
    scfg.admission.queueDepth = 1;
    scfg.admission.perTenantInFlight = 2;
    daemon.start("overload", scfg);

    constexpr size_t kClients = 8;
    std::vector<uint64_t> rejected(kClients);
    std::vector<uint64_t> completed(kClients);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ServeClient client;
            std::string error;
            ASSERT_TRUE(client.connect(daemon.socketPath, &error));
            // Opens get shed under this load too: retry until admitted.
            for (;;) {
                const auto r = client.open("Bro217", c + 1);
                if (r.status == ServeClient::Status::Ok)
                    break;
                ASSERT_TRUE(r.status == ServeClient::Status::Overload ||
                            r.status == ServeClient::Status::Retry);
                ++rejected[c];
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
            for (int i = 0; i < 50; ++i) {
                ReportGroup group;
                const auto r = client.feed("Bro217", c + 1,
                                           daemon.inputs[0], &group);
                if (r.status == ServeClient::Status::Ok)
                    ++completed[c];
                else if (r.status == ServeClient::Status::Overload ||
                         r.status == ServeClient::Status::Retry)
                    ++rejected[c];
                else
                    FAIL() << "unexpected transport/error status";
            }
            client.closeStream("Bro217", c + 1, nullptr);
        });
    }
    for (std::thread &t : threads)
        t.join();

    uint64_t total_rejected = 0, total_completed = 0;
    for (size_t c = 0; c < kClients; ++c) {
        total_rejected += rejected[c];
        total_completed += completed[c];
    }
    EXPECT_GT(total_rejected, 0u) << "tiny queue never shed";
    EXPECT_GT(total_completed, 0u) << "server starved everyone";
    const AdmissionStats adm = daemon.server->admission().stats();
    EXPECT_EQ(adm.overloaded + adm.retried, adm.shed);
    EXPECT_GT(adm.shed, 0u);
    EXPECT_TRUE(waitForEmptyTable(*daemon.service));
    daemon.server->stop();
}

// ------------------------------------------------ protocol robustness --

TEST(ServeServer, UnknownTypeAndBadVersionGetErrors)
{
    TestDaemon daemon({"Bro217"});
    daemon.start("badframes");

    RawConn raw(daemon.socketPath);
    ASSERT_GE(raw.fd, 0);

    std::vector<uint8_t> bytes;
    appendFrame(&bytes, static_cast<MsgType>(99), 0, 1, {});
    ASSERT_TRUE(raw.send(bytes));
    Frame reply;
    ASSERT_TRUE(raw.readFrame(&reply));
    EXPECT_EQ(reply.type, static_cast<uint8_t>(MsgType::Error));
    EXPECT_EQ(reply.requestId, 1u);
    WireReader r(reply.payload);
    ErrorReply err;
    ASSERT_TRUE(decodeError(&r, &err));
    EXPECT_EQ(err.code, ErrorCode::UnknownType);

    // Version byte mangled in an otherwise valid frame.
    bytes.clear();
    appendFrame(&bytes, MsgType::Ping, 0, 2, {});
    bytes[4] = 0x7f; // version field
    ASSERT_TRUE(raw.send(bytes));
    ASSERT_TRUE(raw.readFrame(&reply));
    EXPECT_EQ(reply.type, static_cast<uint8_t>(MsgType::Error));
    WireReader r2(reply.payload);
    ASSERT_TRUE(decodeError(&r2, &err));
    EXPECT_EQ(err.code, ErrorCode::BadVersion);

    // The connection survived both; a Ping still works.
    bytes.clear();
    appendFrame(&bytes, MsgType::Ping, 0, 3, {});
    ASSERT_TRUE(raw.send(bytes));
    ASSERT_TRUE(raw.readFrame(&reply));
    EXPECT_EQ(reply.type, static_cast<uint8_t>(MsgType::Ok));
    daemon.server->stop();
}

TEST(ServeServer, OversizedPrefixClosesConnectionServerSurvives)
{
    TestDaemon daemon({"Bro217"});
    daemon.start("oversize");

    {
        RawConn raw(daemon.socketPath);
        ASSERT_GE(raw.fd, 0);
        const std::vector<uint8_t> evil = {0xff, 0xff, 0xff, 0xff,
                                           1,    2,    3,    4};
        ASSERT_TRUE(raw.send(evil));
        Frame reply;
        EXPECT_FALSE(raw.readFrame(&reply)); // server hung up
    }

    // The server is still healthy for new clients.
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.socketPath, &error)) << error;
    EXPECT_EQ(client.ping().status, ServeClient::Status::Ok);
    EXPECT_TRUE(waitForEmptyTable(*daemon.service));
    daemon.server->stop();
}

TEST(ServeServer, TruncatedFrameThenDisconnectLeaksNothing)
{
    TestDaemon daemon({"Bro217"});
    daemon.start("truncated");

    {
        RawConn raw(daemon.socketPath);
        ASSERT_GE(raw.fd, 0);
        // A valid Open, then half a Feed frame, then vanish.
        std::vector<uint8_t> payload;
        WireWriter w(&payload);
        encodeStreamRequest(&w, StreamRequest{"Bro217", 7});
        std::vector<uint8_t> bytes;
        appendFrame(&bytes, MsgType::Open, 0, 1, payload);
        ASSERT_TRUE(raw.send(bytes));
        Frame reply;
        ASSERT_TRUE(raw.readFrame(&reply));
        EXPECT_EQ(reply.type, static_cast<uint8_t>(MsgType::Ok));
        EXPECT_EQ(daemon.service->openStreamCount(), 1u);

        bytes.clear();
        appendFrame(&bytes, MsgType::Feed, 0, 2,
                    std::vector<uint8_t>(100, 1));
        bytes.resize(bytes.size() / 2); // truncated mid-frame
        ASSERT_TRUE(raw.send(bytes));
    } // disconnect with the stream open and a partial frame buffered

    EXPECT_TRUE(waitForEmptyTable(*daemon.service))
        << "disconnect did not sweep the client's streams";
    daemon.server->stop();
}

TEST(ServeServer, MidFeedDisconnectSweepsBusyStreams)
{
    // Disconnect while feeds are executing: doomed streams must be
    // destroyed at checkin, never leaked.
    TestDaemon daemon({"Bro217"});
    daemon.start("midfeed");

    for (int round = 0; round < 5; ++round) {
        ServeClient client;
        std::string error;
        ASSERT_TRUE(client.connect(daemon.socketPath, &error));
        ASSERT_EQ(client.open("Bro217", 1).status,
                  ServeClient::Status::Ok);
        // Fire a feed and disconnect without reading the response.
        FeedRequest req;
        req.tenant = "Bro217";
        req.entries = {{1, daemon.inputs[0]}};
        std::vector<uint8_t> payload;
        WireWriter w(&payload);
        encodeFeedRequest(&w, req);
        std::vector<uint8_t> bytes;
        appendFrame(&bytes, MsgType::Feed, 0, 99, payload);
        ASSERT_TRUE(client.sendRaw(bytes));
        client.disconnect();
        ASSERT_TRUE(waitForEmptyTable(*daemon.service))
            << "round " << round;
    }
    daemon.server->stop();
}

TEST(ServeServer, StopWithLiveClientsShutsDownCleanly)
{
    TestDaemon daemon({"Bro217"});
    daemon.start("shutdown");
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.socketPath, &error));
    ASSERT_EQ(client.open("Bro217", 1).status, ServeClient::Status::Ok);
    daemon.server->stop(); // with an open stream and a live client
    EXPECT_EQ(daemon.service->openStreamCount(), 0u);
    // Stop is idempotent.
    daemon.server->stop();
}
