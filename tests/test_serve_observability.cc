/**
 * @file
 * End-to-end observability over a live daemon: an injected-delay feed
 * must land in the slow-request ring *and* the structured event log
 * with the same request id; STATS must carry windowed rates and
 * per-tenant labeled series after two observer samples, and its
 * latency rows must read the process-wide request histogram;
 * --metrics-file style Prometheus export must show the per-tenant
 * series. Plus the wire round-trip of the extended StatsReply,
 * including the legacy-decoder truncation path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/request_trace.h"
#include "workloads/registry.h"

using namespace sparseap;
using namespace sparseap::serve;

namespace {

std::string
tempPath(const char *tag)
{
    return std::string("/tmp/sparseap-test-sobs-") + tag + "." +
           std::to_string(::getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

uint64_t
counterValue(const StatsReply &reply, const std::string &name)
{
    for (const auto &[key, value] : reply.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

/** serve.request_micros samples recorded in this process so far. */
uint64_t
recordedRequests()
{
    const telemetry::Snapshot snap = telemetry::snapshot();
    const auto it = snap.histograms.find("serve.request_micros");
    return it == snap.histograms.end() ? 0 : it->second.count;
}

const StatsWindowRow *
findRow(const StatsReply &reply, const std::string &name)
{
    for (const StatsWindowRow &row : reply.windows) {
        if (row.name == name)
            return &row;
    }
    return nullptr;
}

struct ObsDaemon
{
    std::shared_ptr<FlatAutomaton> automaton;
    std::vector<uint8_t> input;
    std::unique_ptr<MatchService> service;
    std::unique_ptr<Server> server;
    std::string socketPath;

    ObsDaemon()
    {
        Rng rng(321);
        Workload w = generateWorkload("Bro217", 7, 5);
        automaton = std::make_shared<FlatAutomaton>(w.app);
        input = synthesizeInput(w.input, 4 * 1024, rng);
    }

    ~ObsDaemon()
    {
        if (server)
            server->stop();
    }

    void start(const char *tag, ServerConfig scfg = {},
               MatchServiceConfig mcfg = {})
    {
        service = std::make_unique<MatchService>(mcfg);
        service->addTenant("Bro217", automaton);
        socketPath = tempPath(tag) + ".sock";
        scfg.socketPath = socketPath;
        server = std::make_unique<Server>(service.get(), scfg);
        std::string error;
        ASSERT_TRUE(server->start(&error)) << error;
    }
};

/** Open stream 1, feed the whole input once, close the stream. */
void
driveOneFeed(ObsDaemon *daemon)
{
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon->socketPath, &error)) << error;
    ASSERT_EQ(client.open("Bro217", 1).status, ServeClient::Status::Ok);
    ReportGroup group;
    ASSERT_EQ(
        client.feed("Bro217", 1, daemon->input, &group).status,
        ServeClient::Status::Ok);
    ASSERT_EQ(client.closeStream("Bro217", 1, nullptr).status,
              ServeClient::Status::Ok);
}

} // namespace

// ------------------------------------------- slow-request capture gate --

TEST(ServeObservability, InjectedDelayCapturesSpanTreeAndLogsIt)
{
    telemetry::SlowRequestRing::instance().clear();
    const std::string log_path = tempPath("slowlog");
    telemetry::initEventLog(log_path, telemetry::LogLevel::Info);

    ObsDaemon daemon;
    ServerConfig scfg;
    scfg.observability.slowRequestMicros = 1000; // 1 ms threshold
    MatchServiceConfig mcfg;
    mcfg.debugFeedDelayMicros = 5000; // every feed stalls 5 ms
    daemon.start("slow", scfg, mcfg);

    driveOneFeed(&daemon);
    daemon.server->stop();
    telemetry::closeEventLog();

    // The feed crossed the threshold: its tree is in the ring with the
    // expected spans.
    const std::vector<telemetry::CapturedRequest> captured =
        telemetry::SlowRequestRing::instance().captured();
    ASSERT_FALSE(captured.empty());
    const telemetry::CapturedRequest *feed = nullptr;
    for (const telemetry::CapturedRequest &cap : captured) {
        if (cap.op == "Feed")
            feed = &cap;
    }
    ASSERT_NE(feed, nullptr) << "no captured Feed request";
    EXPECT_EQ(feed->tenant, "Bro217");
    EXPECT_GE(feed->latencyMicros, 1000u);
    ASSERT_FALSE(feed->spans.empty());
    EXPECT_STREQ(feed->spans[0].name, "serve.request");
    EXPECT_EQ(feed->spans[0].depth, 0u);
    bool saw_admission = false, saw_execute = false, saw_feed = false;
    for (const telemetry::RequestSpanRecord &span : feed->spans) {
        const std::string name = span.name;
        saw_admission |= name == "serve.admission";
        saw_execute |= name == "serve.execute";
        // The wire Feed path executes via feedMany even for a single
        // chunk.
        saw_feed |= name == "service.feed_many";
    }
    EXPECT_TRUE(saw_admission);
    EXPECT_TRUE(saw_execute);
    EXPECT_TRUE(saw_feed);

    // The event log carries a serve.request.slow line with the *same*
    // request id.
    const std::string needle =
        "\"event\":\"serve.request.slow\"";
    const std::string text = slurp(log_path);
    EXPECT_NE(text.find(needle), std::string::npos);
    EXPECT_NE(
        text.find("\"request_id\":" +
                  std::to_string(feed->requestId)),
        std::string::npos)
        << "log lines do not mention the captured request id";
    EXPECT_NE(text.find("\"tenant\":\"Bro217\""), std::string::npos);

    telemetry::SlowRequestRing::instance().clear();
    std::remove(log_path.c_str());
}

// ----------------------------------------- windowed / per-tenant STATS --

TEST(ServeObservability, StatsCarryWindowRatesAndTenantSeries)
{
    ObsDaemon daemon;
    ServerConfig scfg;
    // Sample manually below; a 0 period disables the observer thread.
    scfg.observability.samplePeriodMillis = 0;
    daemon.start("stats", scfg);

    const uint64_t recorded_before = recordedRequests();
    driveOneFeed(&daemon);
    daemon.server->sampleNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    driveOneFeed(&daemon);
    daemon.server->sampleNow();
    // A worker records a request's latency after it writes the reply,
    // so the last Close may not be counted yet: wait (up to 5 s) until
    // all six requests are, before STATS reads the count.
    for (int i = 0; i < 5000 && recordedRequests() < recorded_before + 6;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon.socketPath, &error)) << error;
    StatsReply reply;
    ASSERT_EQ(client.stats(&reply).status, ServeClient::Status::Ok);

    // Per-tenant labeled totals rode along with the flat counters.
    EXPECT_GE(counterValue(reply, "serve.feeds{tenant=Bro217}"), 1u);
    EXPECT_GE(counterValue(reply, "serve.fed_bytes{tenant=Bro217}"),
              1u);
    EXPECT_GE(counterValue(reply, "serve.requests{tenant=Bro217}"),
              1u);
    // Engine-phase attribution: the cycles went *somewhere*.
    const uint64_t cycles =
        counterValue(reply, "serve.dfa_cycles{tenant=Bro217}") +
        counterValue(reply, "serve.split_cycles{tenant=Bro217}") +
        counterValue(reply, "serve.dense_cycles{tenant=Bro217}") +
        counterValue(reply, "serve.sparse_cycles{tenant=Bro217}");
    EXPECT_GE(cycles, daemon.input.size());
    EXPECT_GE(counterValue(reply, "serve.watchdog.ticks"), 2u);
    // Two Open/Feed/Close rounds: six requests in serve.request_micros.
    EXPECT_GE(counterValue(reply, "serve.latency_count"), 6u);
    EXPECT_GT(counterValue(reply, "serve.latency_p99_us"), 0u);

    // Two samples ~20 ms apart: the 10 s horizon covers both, so the
    // rate rows are live.
    EXPECT_GT(reply.windowSpanMicros[0], 0u);
    const StatsWindowRow *feeds = findRow(reply, "serve.feeds");
    ASSERT_NE(feeds, nullptr) << "no windowed serve.feeds row";
    EXPECT_GT(feeds->milli[0], 0u);
    const StatsWindowRow *p50 =
        findRow(reply, "serve.request_p50_us");
    ASSERT_NE(p50, nullptr) << "no derived latency quantile row";
    EXPECT_GT(p50->milli[0], 0u);
}

// --------------------------------------------------- prometheus export --

TEST(ServeObservability, SampleWritesPrometheusMetricsFile)
{
    ObsDaemon daemon;
    const std::string metrics_path = tempPath("prom");
    ServerConfig scfg;
    scfg.observability.samplePeriodMillis = 0;
    scfg.observability.metricsPath = metrics_path;
    daemon.start("prom", scfg);

    driveOneFeed(&daemon);
    daemon.server->sampleNow();

    const std::string text = slurp(metrics_path);
    EXPECT_NE(text.find("# TYPE sparseap_serve_feeds counter"),
              std::string::npos);
    EXPECT_NE(text.find("sparseap_serve_feeds{tenant=\"Bro217\"}"),
              std::string::npos);
    EXPECT_NE(text.find("sparseap_serve_request_micros"),
              std::string::npos);
    std::remove(metrics_path.c_str());
}

// ----------------------------------------------- stats wire round-trip --

TEST(ServeObservability, StatsReplyWindowsRoundTripOnTheWire)
{
    StatsReply reply;
    reply.counters = {{"serve.feeds", 3}, {"serve.requests", 5}};
    reply.windowSpanMicros[0] = 10'000'000;
    reply.windowSpanMicros[1] = 60'000'000;
    reply.windowSpanMicros[2] = 0;
    StatsWindowRow row;
    row.name = "serve.feeds";
    row.milli[0] = 1500;
    row.milli[1] = 250;
    reply.windows.push_back(row);

    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    encodeStatsReply(&w, reply);

    StatsReply decoded;
    WireReader r(payload);
    ASSERT_TRUE(decodeStatsReply(&r, &decoded));
    ASSERT_EQ(decoded.counters.size(), 2u);
    EXPECT_EQ(decoded.counters[0].first, "serve.feeds");
    EXPECT_EQ(decoded.counters[0].second, 3u);
    EXPECT_EQ(decoded.windowSpanMicros[0], 10'000'000u);
    EXPECT_EQ(decoded.windowSpanMicros[2], 0u);
    ASSERT_EQ(decoded.windows.size(), 1u);
    EXPECT_EQ(decoded.windows[0].name, "serve.feeds");
    EXPECT_EQ(decoded.windows[0].milli[0], 1500u);
    EXPECT_EQ(decoded.windows[0].milli[1], 250u);
    EXPECT_EQ(decoded.windows[0].milli[2], 0u);
}

TEST(ServeObservability, LegacyStatsPayloadStillDecodes)
{
    // An old server stops after the counter list; a new decoder must
    // accept that and leave the window section empty.
    StatsReply reply;
    reply.counters = {{"serve.feeds", 3}};
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    w.u32(1);
    w.str("serve.feeds");
    w.u64(3);

    StatsReply decoded;
    decoded.windows.push_back(StatsWindowRow{}); // must be cleared
    WireReader r(payload);
    ASSERT_TRUE(decodeStatsReply(&r, &decoded));
    ASSERT_EQ(decoded.counters.size(), 1u);
    EXPECT_TRUE(decoded.windows.empty());
    EXPECT_EQ(decoded.windowSpanMicros[0], 0u);
}

TEST(ServeObservability, HostileWindowRowCountIsRejected)
{
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    w.u32(0); // no counters
    for (size_t h = 0; h < kStatsHorizons; ++h)
        w.u64(1);
    w.u32(0xffffffffu); // absurd row count, nowhere near enough bytes

    StatsReply decoded;
    WireReader r(payload);
    EXPECT_FALSE(decodeStatsReply(&r, &decoded));
}
