/**
 * @file
 * Unit tests for the observability building blocks: bounded-cardinality
 * labeled families (cap + `other` fold, recency order, LabeledGauge),
 * the structured JSON event log (sink filtering, payload rendering),
 * the slow-request capture ring, request-scoped span trees and their
 * one path into the Chrome trace session, and the Prometheus text
 * exposition (label re-emission, atomic file export).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "telemetry/event_log.h"
#include "telemetry/exposition.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/request_trace.h"
#include "telemetry/trace.h"

using namespace sparseap;
using namespace sparseap::telemetry;

namespace {

std::string
tempPath(const char *tag)
{
    return std::string("/tmp/sparseap-test-obs-") + tag + "." +
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
counterValue(const Snapshot &s, const std::string &name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

} // namespace

// ------------------------------------------------------ labeled names --

TEST(Labels, NameRoundTrips)
{
    const std::string name = labeledName("serve.feeds", "EM");
    EXPECT_EQ(name, "serve.feeds{tenant=EM}");
    std::string base, label;
    ASSERT_TRUE(splitLabeledName(name, &base, &label));
    EXPECT_EQ(base, "serve.feeds");
    EXPECT_EQ(label, "EM");

    EXPECT_FALSE(splitLabeledName("serve.feeds", nullptr, nullptr));
    EXPECT_FALSE(splitLabeledName("", nullptr, nullptr));
}

TEST(Labels, CounterFamilyCapsAndFoldsIntoOther)
{
    const Snapshot before = snapshot();
    LabeledCounter fam("test.obslab.cnt", 2);
    fam.add("a", 1);
    fam.add("b", 2);
    fam.add("c", 3); // beyond cap -> other
    fam.add("d", 4); // beyond cap -> other
    fam.add("a", 10);
    EXPECT_EQ(fam.seriesCount(), 2u);

    const Snapshot after = snapshot();
    EXPECT_EQ(counterValue(after, "test.obslab.cnt{tenant=a}"), 11u);
    EXPECT_EQ(counterValue(after, "test.obslab.cnt{tenant=b}"), 2u);
    EXPECT_EQ(counterValue(after, "test.obslab.cnt{tenant=other}"), 7u);
    // Each fold bumped the shared overflow counter.
    EXPECT_EQ(counterValue(after, "telemetry.label_overflow"),
              counterValue(before, "telemetry.label_overflow") + 2);
}

TEST(Labels, ExplicitOtherNeverGetsItsOwnSeries)
{
    LabeledCounter fam("test.obslab.explicit", 8);
    fam.add(kOtherLabel, 5);
    EXPECT_EQ(fam.seriesCount(), 0u);
    const Snapshot s = snapshot();
    EXPECT_EQ(counterValue(s, "test.obslab.explicit{tenant=other}"),
              5u);
}

TEST(Labels, RecencyOrderTracksLastUse)
{
    LabeledCounter fam("test.obslab.recency", 8);
    fam.add("a", 1);
    fam.add("b", 1);
    fam.add("c", 1);
    fam.add("a", 1); // touch a again
    const std::vector<std::string> order = fam.labelsByRecency();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "a");
    EXPECT_EQ(order[1], "c");
    EXPECT_EQ(order[2], "b");
}

TEST(Labels, GaugeFamilySetSemanticsAndCap)
{
    LabeledGauge fam("test.obslab.gauge", 2);
    fam.set("a", 5);
    fam.set("b", 7);
    fam.set("c", 9);  // beyond cap -> other (last write wins)
    fam.set("c", 11);
    fam.set("a", 6);  // levels overwrite, never accumulate
    EXPECT_EQ(fam.seriesCount(), 2u);

    const Snapshot s = snapshot();
    EXPECT_EQ(s.gauges.at("test.obslab.gauge{tenant=a}"), 6);
    EXPECT_EQ(s.gauges.at("test.obslab.gauge{tenant=b}"), 7);
    EXPECT_EQ(s.gauges.at("test.obslab.gauge{tenant=other}"), 11);
}

// ---------------------------------------------------------- event log --

TEST(EventLog, WritesOneJsonObjectPerEvent)
{
    const std::string path = tempPath("log");
    initEventLog(path, LogLevel::Debug);
    EXPECT_TRUE(eventLogEnabled(LogLevel::Debug));
    LogEvent(LogLevel::Info, "test.event")
        .str("who", "acme")
        .num("n", 42);
    LogEvent(LogLevel::Warn, "test.warned").str("quote", "a\"b");
    closeEventLog();

    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"level\":\"info\""), std::string::npos);
    EXPECT_NE(text.find("\"event\":\"test.event\""), std::string::npos);
    EXPECT_NE(text.find("\"who\":\"acme\""), std::string::npos);
    EXPECT_NE(text.find("\"n\":42"), std::string::npos);
    EXPECT_NE(text.find("\"ts_us\":"), std::string::npos);
    // JSON string values escape quotes.
    EXPECT_NE(text.find("\"quote\":\"a\\\"b\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(EventLog, SinkLevelFiltersLowerLevels)
{
    const std::string path = tempPath("loglevel");
    initEventLog(path, LogLevel::Warn);
    EXPECT_FALSE(eventLogEnabled(LogLevel::Info));
    EXPECT_TRUE(eventLogEnabled(LogLevel::Error));
    LogEvent(LogLevel::Info, "test.dropped");
    LogEvent(LogLevel::Error, "test.kept");
    closeEventLog();

    const std::string text = slurp(path);
    EXPECT_EQ(text.find("test.dropped"), std::string::npos);
    EXPECT_NE(text.find("test.kept"), std::string::npos);
    std::remove(path.c_str());
}

TEST(EventLog, ParsesLevelNames)
{
    LogLevel level = LogLevel::Info;
    EXPECT_TRUE(parseLogLevel("debug", &level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("error", &level));
    EXPECT_EQ(level, LogLevel::Error);
    EXPECT_FALSE(parseLogLevel("loud", &level));
    EXPECT_EQ(level, LogLevel::Error); // untouched on garbage
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

// --------------------------------------------------- slow-request ring --

TEST(SlowRequestRing, BoundedOldestFirstWithLifetimeTotal)
{
    SlowRequestRing &ring = SlowRequestRing::instance();
    ring.clear();
    const size_t pushed = SlowRequestRing::kCapacity + 8;
    for (size_t i = 1; i <= pushed; ++i) {
        CapturedRequest req;
        req.requestId = i;
        req.spans.push_back({"serve.request", 0, 1, 0, {}});
        ring.capture(std::move(req));
    }
    EXPECT_EQ(ring.totalCaptured(), pushed);
    const std::vector<CapturedRequest> kept = ring.captured();
    ASSERT_EQ(kept.size(), SlowRequestRing::kCapacity);
    // Oldest retained first: ids 9 .. pushed.
    EXPECT_EQ(kept.front().requestId, 9u);
    EXPECT_EQ(kept.back().requestId, pushed);
    ring.clear();
    EXPECT_TRUE(ring.captured().empty());
    EXPECT_EQ(ring.totalCaptured(), 0u);
}

TEST(SlowRequestRing, WriteJsonMatchesDumpSchema)
{
    SlowRequestRing &ring = SlowRequestRing::instance();
    ring.clear();
    CapturedRequest req;
    req.requestId = 7;
    req.tenant = "acme";
    req.op = "Feed";
    req.latencyMicros = 1234;
    req.spans.push_back({"serve.request", 100, 1234, 0, {}});
    req.spans.push_back({"session.feed", 150, 1000, 1, {}});
    ring.capture(std::move(req));

    std::ostringstream os;
    ring.writeJson(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"record\":\"slow_requests\""),
              std::string::npos);
    EXPECT_NE(text.find("\"captured_total\":1"), std::string::npos);
    EXPECT_NE(text.find("\"request_id\":7"), std::string::npos);
    EXPECT_NE(text.find("\"tenant\":\"acme\""), std::string::npos);
    EXPECT_NE(text.find("\"op\":\"Feed\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"session.feed\""),
              std::string::npos);
    EXPECT_NE(text.find("\"depth\":1"), std::string::npos);
    ring.clear();
}

// ------------------------------------------------------ request traces --

TEST(RequestTrace, ScopesBuildADepthTaggedTreeUnderTheRoot)
{
    SlowRequestRing &ring = SlowRequestRing::instance();
    ring.clear();

    const uint64_t t0 = nowMicros();
    {
        RequestTrace trace(99, "acme", "Feed");
        EXPECT_EQ(RequestTrace::current(), &trace);
        trace.addSpan("serve.admission", t0, 5);
        {
            SPARSEAP_SPAN("serve.execute");
            SPARSEAP_SPAN("session.feed");
        }
        // Let the root outgrow the 5 us pre-timed admission span so
        // the containment assertions below are meaningful.
        while (nowMicros() - t0 < 50) {
        }
        // Threshold 1 us: everything is "slow", so the tree lands in
        // the ring.
        const uint64_t latency = trace.finish(t0, 1);
        EXPECT_GE(latency, 1u);
    }
    EXPECT_EQ(RequestTrace::current(), nullptr);

    const std::vector<CapturedRequest> kept = ring.captured();
    ASSERT_EQ(kept.size(), 1u);
    const CapturedRequest &cap = kept[0];
    EXPECT_EQ(cap.requestId, 99u);
    EXPECT_EQ(cap.tenant, "acme");
    EXPECT_EQ(cap.op, "Feed");

    ASSERT_GE(cap.spans.size(), 4u);
    EXPECT_STREQ(cap.spans[0].name, "serve.request");
    EXPECT_EQ(cap.spans[0].depth, 0u);
    uint32_t admission_depth = 99, outer_depth = 99, inner_depth = 99;
    for (const RequestSpanRecord &span : cap.spans) {
        const std::string name = span.name;
        if (name == "serve.admission")
            admission_depth = span.depth;
        else if (name == "serve.execute")
            outer_depth = span.depth;
        else if (name == "session.feed")
            inner_depth = span.depth;
        // Every span lies inside the root.
        EXPECT_GE(span.t0_us, cap.spans[0].t0_us) << name;
        EXPECT_LE(span.t0_us + span.dur_us,
                  cap.spans[0].t0_us + cap.spans[0].dur_us)
            << name;
    }
    EXPECT_EQ(admission_depth, 1u);
    EXPECT_EQ(outer_depth, 1u);
    EXPECT_EQ(inner_depth, 2u);
    ring.clear();
}

TEST(RequestTrace, FastRequestsAreNotCaptured)
{
    SlowRequestRing &ring = SlowRequestRing::instance();
    ring.clear();
    const uint64_t t0 = nowMicros();
    {
        RequestTrace trace(1, "", "Ping");
        // Threshold 0 disables capture entirely.
        trace.finish(t0, 0);
    }
    {
        RequestTrace trace(2, "", "Ping");
        // A huge threshold is never met by an immediate finish.
        trace.finish(nowMicros(), 60ull * 1000 * 1000);
    }
    EXPECT_TRUE(ring.captured().empty());
}

TEST(RequestTrace, SpanScopeIsANoOpWithoutAnInstalledTrace)
{
    ASSERT_EQ(RequestTrace::current(), nullptr);
    ASSERT_FALSE(traceEnabled());
    SPARSEAP_SPAN("orphan"); // no sink: must not crash or record
}

TEST(RequestTrace, SpansInsideARequestReachTheChromeSessionOnce)
{
    const auto phaseCount = [] {
        const Snapshot s = snapshot();
        const auto it = s.histograms.find("phase.request_probe_us");
        return it == s.histograms.end() ? uint64_t{0} : it->second.count;
    };
    const uint64_t phases_before = phaseCount();
    const std::string path = tempPath("reqchrome");
    {
        TraceSession session(path);
        const uint64_t t0 = nowMicros();
        RequestTrace trace(77, "acme", "Feed");
        {
            SPARSEAP_SPAN("request.probe", "batch", 5);
            SPARSEAP_PHASE("request_probe");
        }
        while (nowMicros() - t0 < 50) {
        }
        trace.finish(t0, 0);
    } // the trace uninstalls, then the session flushes
    EXPECT_EQ(phaseCount(), phases_before + 1);

    // One event per line: {"name":"..",...,"ts":..,"dur":..,"args":{..}}
    const auto number = [](const std::string &line, const char *key) {
        const std::string needle = std::string("\"") + key + "\":";
        const size_t at = line.find(needle);
        return at == std::string::npos
                   ? int64_t{-1}
                   : std::stoll(line.substr(at + needle.size()));
    };
    struct Event
    {
        int64_t ts, dur, req;
        std::string line;
    };
    std::vector<Event> roots, spans, phases;
    std::istringstream lines(slurp(path));
    for (std::string line; std::getline(lines, line);) {
        const Event e{number(line, "ts"), number(line, "dur"),
                      number(line, "req"), line};
        if (line.find("\"name\":\"serve.request\"") != std::string::npos)
            roots.push_back(e);
        else if (line.find("\"name\":\"request.probe\"") !=
                 std::string::npos)
            spans.push_back(e);
        else if (line.find("\"name\":\"request_probe\"") !=
                 std::string::npos)
            phases.push_back(e);
    }
    std::remove(path.c_str());

    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0].req, 77);
    ASSERT_EQ(spans.size(), 1u);
    ASSERT_EQ(phases.size(), 1u);
    for (const Event &e : {spans[0], phases[0]}) {
        EXPECT_EQ(e.req, 77) << e.line;
        EXPECT_GE(e.ts, roots[0].ts) << e.line;
        EXPECT_LE(e.ts + e.dur, roots[0].ts + roots[0].dur) << e.line;
    }
    // The span's own args ride along with the request tag.
    EXPECT_EQ(number(spans[0].line, "batch"), 5) << spans[0].line;
}

// ----------------------------------------------------------- exposition --

TEST(Exposition, ManglesNamesIntoThePrometheusCharset)
{
    EXPECT_EQ(prometheusName("serve.fed_bytes"),
              "sparseap_serve_fed_bytes");
    EXPECT_EQ(prometheusName("a-b c"), "sparseap_a_b_c");
}

TEST(Exposition, ReEmitsLabeledSeriesWithProperLabelSets)
{
    Snapshot s;
    s.counters["serve.feeds"] = 3;
    s.counters["serve.feeds{tenant=EM}"] = 2;
    s.gauges["serve.queue_depth"] = 4;
    s.gauges["serve.parked_bytes{tenant=EM}"] = 1024;
    Snapshot::Hist h;
    h.count = 1;
    h.sum = 4;
    h.buckets[Histogram::bucketOf(4)] = 1;
    s.histograms["serve.request_micros{tenant=EM}"] = h;

    std::ostringstream os;
    writePrometheus(os, s);
    const std::string text = os.str();

    EXPECT_NE(text.find("# TYPE sparseap_serve_feeds counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("sparseap_serve_feeds 3\n"), std::string::npos);
    EXPECT_NE(text.find("sparseap_serve_feeds{tenant=\"EM\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("sparseap_serve_queue_depth 4\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("sparseap_serve_parked_bytes{tenant=\"EM\"} 1024\n"),
        std::string::npos);
    EXPECT_NE(text.find("sparseap_serve_request_micros{tenant=\"EM\","
                        "quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(
        text.find("sparseap_serve_request_micros_sum{tenant=\"EM\"} 4"),
        std::string::npos);
    EXPECT_NE(text.find(
                  "sparseap_serve_request_micros_count{tenant=\"EM\"} 1"),
              std::string::npos);
    // No mangled-brace artifacts anywhere.
    EXPECT_EQ(text.find("_tenant_"), std::string::npos);
}

TEST(Exposition, FileExportIsAtomicAndReadable)
{
    Snapshot s;
    s.counters["serve.requests"] = 9;
    const std::string path = tempPath("prom");
    ASSERT_TRUE(writePrometheusFile(path, s));
    const std::string text = slurp(path);
    EXPECT_NE(text.find("sparseap_serve_requests 9"),
              std::string::npos);
    // No leftover temp file from the rename.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());

    EXPECT_FALSE(
        writePrometheusFile("/nonexistent-dir/metrics.prom", s));
}
