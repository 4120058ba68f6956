/**
 * @file
 * Telemetry subsystem tests: registry merge semantics (thread-sharded
 * counters, gauges, histogram metrics), snapshot delta/JSON round-trip,
 * the determinism contract (deterministic counters are byte-identical
 * across job counts; log replay is unchanged by an active trace
 * session), and trace-session output covering every pipeline phase.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/vec.h"
#include "core/experiment.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "spap/executor.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot_io.h"
#include "telemetry/trace.h"
#include "workloads/inputs.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

/** Per-process scratch file (ctest may run sibling tests in parallel). */
std::string
scratchPath(const char *stem)
{
    return "/tmp/sparseap_" + std::string(stem) + "_" +
           std::to_string(getpid()) + ".jsonl";
}

// globalOptions() is parsed once per process, so pin the environment to
// a small deterministic configuration before the first ExperimentRunner.
// SPARSEAP_JSON points at a per-process scratch file so forEachApp's
// telemetry records can be read back.
const bool kEnvReady = [] {
    setenv("SPARSEAP_INPUT_KB", "4", 1);
    setenv("SPARSEAP_SCALE", "3", 1);
    setenv("SPARSEAP_APPS", "EM,Rg05,DS03,RF2,LV,CAV", 1);
    setenv("SPARSEAP_VERBOSE", "1", 1);
    const std::string json = scratchPath("telemetry");
    std::remove(json.c_str());
    setenv("SPARSEAP_JSON", json.c_str(), 1);
    unsetenv("SPARSEAP_TRACE");
    unsetenv("SPARSEAP_STATS");
    return true;
}();

TEST(TelemetryRegistry, CounterVisibleInSnapshot)
{
    static telemetry::Counter c("test.counter.basic");
    const telemetry::Snapshot before = telemetry::snapshot();
    c.add();
    c.add(41);
    const telemetry::Snapshot delta =
        before.deltaTo(telemetry::snapshot());
    ASSERT_TRUE(delta.counters.count("test.counter.basic"));
    EXPECT_EQ(delta.counters.at("test.counter.basic"), 42u);
}

TEST(TelemetryRegistry, CountersMergeAcrossThreads)
{
    static telemetry::Counter c("test.counter.threads");
    const telemetry::Snapshot before = telemetry::snapshot();

    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.add();
        });
    }
    for (std::thread &t : threads)
        t.join();

    const telemetry::Snapshot delta =
        before.deltaTo(telemetry::snapshot());
    EXPECT_EQ(delta.counters.at("test.counter.threads"),
              kThreads * kPerThread);
}

TEST(TelemetryRegistry, SameNameSharesOneCell)
{
    // Two handles interning the same name fold into one counter.
    telemetry::Counter a("test.counter.shared");
    telemetry::Counter b("test.counter.shared");
    const telemetry::Snapshot before = telemetry::snapshot();
    a.add(3);
    b.add(4);
    const telemetry::Snapshot delta =
        before.deltaTo(telemetry::snapshot());
    EXPECT_EQ(delta.counters.at("test.counter.shared"), 7u);
}

TEST(TelemetryRegistry, GaugeSetAndMax)
{
    telemetry::Gauge g("test.gauge");
    g.set(5);
    g.max(3); // below current level: no change
    EXPECT_EQ(telemetry::snapshot().gauges.at("test.gauge"), 5);
    g.max(9);
    EXPECT_EQ(telemetry::snapshot().gauges.at("test.gauge"), 9);
    g.set(2); // set is last-write-wins, may lower
    EXPECT_EQ(telemetry::snapshot().gauges.at("test.gauge"), 2);
}

/**
 * Engine::run sets the engine.simd_isa gauge on every run; concurrent
 * runs beside snapshot() readers must not race on the registry's gauge
 * cells (the thread-sanitizer leg runs this).
 */
TEST(TelemetryRegistry, GaugeSetsRaceFreeBesideSnapshots)
{
    Application app("gauge", "G");
    app.addNfa(compileRegex("ab", "p"));
    const FlatAutomaton fa(app);
    std::vector<uint8_t> input(256, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';

    constexpr int kThreads = 4;
    std::atomic<int> running{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            Engine engine(fa, EngineMode::Sparse);
            for (int r = 0; r < 200; ++r)
                EXPECT_EQ(engine.run(input).reports.size(), 128u);
            running.fetch_sub(1);
        });
    }
    int snapshots = 0;
    while (running.load() > 0 || snapshots == 0) {
        telemetry::snapshot();
        ++snapshots;
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(telemetry::snapshot().gauges.at("engine.simd_isa"),
              static_cast<int64_t>(simd::activeIsa()));
}

TEST(TelemetryRegistry, HistogramMetricAggregates)
{
    static telemetry::HistogramMetric h("test.hist");
    const telemetry::Snapshot before = telemetry::snapshot();
    for (uint64_t v : {1ull, 2ull, 100ull, 100ull, 5000ull})
        h.add(v);
    const telemetry::Snapshot delta =
        before.deltaTo(telemetry::snapshot());
    ASSERT_TRUE(delta.histograms.count("test.hist"));
    const telemetry::Snapshot::Hist &hist =
        delta.histograms.at("test.hist");
    EXPECT_EQ(hist.count, 5u);
    EXPECT_EQ(hist.sum, 5203u);
    EXPECT_NEAR(hist.mean(), 5203.0 / 5.0, 1e-9);
    // p50 of {1,2,100,100,5000} sits in 100's bucket [64,127].
    EXPECT_GE(hist.quantile(0.5), 2.0);
    EXPECT_LE(hist.quantile(0.5), 128.0);
}

TEST(TelemetrySnapshot, EmptyAndDelta)
{
    telemetry::Snapshot zero;
    EXPECT_TRUE(zero.empty());

    telemetry::Snapshot a, b;
    a.counters["x"] = 3;
    b.counters["x"] = 10;
    b.counters["y"] = 2;
    const telemetry::Snapshot d = a.deltaTo(b);
    EXPECT_FALSE(d.empty());
    EXPECT_EQ(d.counters.at("x"), 7u);
    EXPECT_EQ(d.counters.at("y"), 2u);
}

TEST(TelemetrySnapshot, DeterministicCountersExcludePoolPrefix)
{
    telemetry::Snapshot s;
    s.counters["engine.cycles"] = 10;
    s.counters["spap.jumps"] = 5;
    s.counters["pool.tasks"] = 7;
    s.counters["pool.queue_high_water"] = 3;
    const auto det = s.deterministicCounters();
    EXPECT_EQ(det.size(), 2u);
    EXPECT_TRUE(det.count("engine.cycles"));
    EXPECT_TRUE(det.count("spap.jumps"));
    EXPECT_FALSE(det.count("pool.tasks"));
}

TEST(TelemetrySnapshot, JsonRoundTrip)
{
    telemetry::Snapshot s;
    s.counters["spap.jumps"] = 123;
    s.counters["engine.cycles"] = 456789;
    s.gauges["pool.workers"] = 4;
    telemetry::Snapshot::Hist &h = s.histograms["phase.flatten_us"];
    h.count = 3;
    h.sum = 300;
    h.buckets[0] = 1;
    h.buckets[7] = 2;

    std::ostringstream out;
    telemetry::writeSnapshotJson(out, s, "CAV");
    // Add a non-telemetry line and a blank: both must be skipped.
    out << "{\"record\":\"table\",\"title\":\"x\"}\n\n";
    telemetry::writeSnapshotJson(out, s, "*");

    std::istringstream in(out.str());
    std::string error;
    const std::vector<telemetry::NamedSnapshot> records =
        telemetry::readTelemetryRecords(in, &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].app, "CAV");
    EXPECT_EQ(records[1].app, "*");

    const telemetry::Snapshot &r = records[0].snap;
    EXPECT_EQ(r.counters, s.counters);
    EXPECT_EQ(r.gauges, s.gauges);
    ASSERT_TRUE(r.histograms.count("phase.flatten_us"));
    const telemetry::Snapshot::Hist &rh =
        r.histograms.at("phase.flatten_us");
    EXPECT_EQ(rh.count, h.count);
    EXPECT_EQ(rh.sum, h.sum);
    EXPECT_EQ(rh.buckets, h.buckets);
}

/** One small SpAP pipeline run; returns its deterministic counter delta
 *  and adds the executed SpAP batch count to @p batches. */
std::map<std::string, uint64_t>
spapCounterDelta(const AppTopology &topo, ExecutionOptions opts,
                 const PreparedPartition &prep, unsigned jobs,
                 size_t *batches)
{
    opts.jobs = jobs;
    const telemetry::Snapshot before = telemetry::snapshot();
    const SpapRunStats stats =
        runBaseApSpap(topo, opts, prep, /*collect_reports=*/false);
    *batches += stats.spApBatches;
    return before.deltaTo(telemetry::snapshot()).deterministicCounters();
}

TEST(TelemetryDeterminism, CounterDeltasIdenticalAcrossJobCounts)
{
    // Same trio as test_parallel_executor: between them the configs
    // exercise multi-batch SpAP execution.
    size_t spap_batches_total = 0;
    for (const char *abbr : {"CAV", "Snort", "PEN"}) {
        Workload w = generateWorkload(abbr, 11, 5);
        Rng rng(991);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, 8192, rng);
        AppTopology topo(w.app);

        ExecutionOptions opts;
        opts.ap.capacity =
            std::max<size_t>(w.app.totalStates() / 6, 64);
        opts.profileFraction = 0.001;
        opts.fullInputAsTest = w.fullInputAsTest;
        const PreparedPartition prep =
            preparePartition(topo, opts, input);
        // Populate the partition's lazy hot-run cache up front so both
        // measured runs do identical work (the first caller would
        // otherwise absorb the engine.* counters of the cached run).
        prep.hotRunResult();

        const auto serial =
            spapCounterDelta(topo, opts, prep, 1, &spap_batches_total);
        size_t ignored = 0;
        const auto parallel =
            spapCounterDelta(topo, opts, prep, 8, &ignored);
        EXPECT_EQ(serial, parallel) << abbr;
        EXPECT_TRUE(serial.count("spap.runs")) << abbr;
    }
    // The comparison is only meaningful if SpAP mode actually ran.
    EXPECT_GT(spap_batches_total, 0u);
}

TEST(TelemetryDeterminism, LogReplayUnchangedByActiveTraceSession)
{
    EXPECT_TRUE(kEnvReady);
    auto sweepLogs = [] {
        ExperimentRunner runner;
        std::ostringstream errs;
        std::streambuf *old = std::cerr.rdbuf(errs.rdbuf());
        runner.forEachApp("HML", [](const LoadedApp &, size_t) {}, 8);
        std::cerr.rdbuf(old);
        return errs.str();
    };

    const std::string plain = sweepLogs();
    const std::string trace_path = scratchPath("replay_trace");
    std::string traced;
    {
        telemetry::TraceSession session(trace_path);
        EXPECT_TRUE(telemetry::traceEnabled());
        traced = sweepLogs();
    }
    EXPECT_FALSE(telemetry::traceEnabled());
    EXPECT_EQ(plain, traced);
    EXPECT_NE(plain.find("generated EM"), std::string::npos);
    std::remove(trace_path.c_str());
}

TEST(TelemetryTrace, SessionCoversEveryPipelinePhase)
{
    const std::string path = scratchPath("trace");
    {
        telemetry::TraceSession session(path);

        size_t spap_batches_total = 0;
        for (const char *abbr : {"CAV", "Snort", "PEN"}) {
            Workload w = generateWorkload(abbr, 11, 5);
            Rng rng(991);
            const std::vector<uint8_t> input =
                synthesizeInput(w.input, 8192, rng);
            AppTopology topo(w.app);

            ExecutionOptions opts;
            opts.ap.capacity =
                std::max<size_t>(w.app.totalStates() / 6, 64);
            opts.profileFraction = 0.001;
            opts.fullInputAsTest = w.fullInputAsTest;
            const PreparedPartition prep =
                preparePartition(topo, opts, input);
            spap_batches_total +=
                runBaseApSpap(topo, opts, prep, false).spApBatches;
        }
        // spap.batch spans only exist if SpAP batches actually ran.
        ASSERT_GT(spap_batches_total, 0u);
    } // session destructor flushes

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();
    std::remove(path.c_str());

    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    for (const char *span : {"flatten", "profile", "partition", "fill",
                             "hot_run", "spap.batch"}) {
        EXPECT_NE(trace.find("\"name\":\"" + std::string(span) + "\""),
                  std::string::npos)
            << "missing span " << span;
    }
    // Every event is a complete event with explicit duration.
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
    // The spap.batch span carries its batch index and event count.
    EXPECT_NE(trace.find("\"batch\":"), std::string::npos);
    EXPECT_NE(trace.find("\"events\":"), std::string::npos);
}

/** Restrict a counter map to one prefix (sweep-owned metrics only). */
std::map<std::string, uint64_t>
withPrefix(const std::map<std::string, uint64_t> &m,
           const std::string &prefix)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[k, v] : m) {
        if (k.rfind(prefix, 0) == 0)
            out[k] = v;
    }
    return out;
}

TEST(TelemetrySweep, PerAppRecordsCrossCheckAgainstRunStats)
{
    EXPECT_TRUE(kEnvReady);
    const std::string json_path = getenv("SPARSEAP_JSON");

    auto countRecords = [&] {
        std::ifstream in(json_path);
        std::string error;
        return telemetry::readTelemetryRecords(in, &error).size();
    };
    const size_t already = countRecords();

    // Serial sweep: forEachApp writes one exact per-app record each.
    ExperimentRunner runner;
    const std::vector<std::string> apps = runner.selectApps("HML");
    std::vector<SpapRunStats> rows(apps.size());
    runner.forEachApp(
        "HML",
        [&](const LoadedApp &app, size_t i) {
            const size_t capacity =
                app.workload.app.totalStates() / 4 + 8;
            rows[i] = runAppConfig(app, 0.01, capacity);
        },
        /*jobs=*/1);

    std::ifstream in(json_path);
    ASSERT_TRUE(in.good()) << json_path;
    std::string error;
    std::vector<telemetry::NamedSnapshot> records =
        telemetry::readTelemetryRecords(in, &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_GE(records.size(), already + apps.size());
    records.erase(records.begin(),
                  records.begin() + static_cast<ptrdiff_t>(already));

    // One record per app, tagged in catalog order, whose spap.* counters
    // equal that app's own SpapRunStats — the per-app attribution is
    // exact when the sweep runs on one lane.
    ASSERT_EQ(records.size(), apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        EXPECT_EQ(records[i].app, apps[i]);
        const auto &c = records[i].snap.counters;
        auto counter = [&](const char *name) -> uint64_t {
            auto it = c.find(name);
            return it != c.end() ? it->second : 0;
        };
        EXPECT_EQ(counter("spap.jumps"), rows[i].jumps) << apps[i];
        EXPECT_EQ(counter("spap.enables"), rows[i].enables) << apps[i];
        EXPECT_EQ(counter("spap.estalls"), rows[i].enableStalls)
            << apps[i];
        EXPECT_EQ(counter("spap.intermediate_reports"),
                  rows[i].intermediateReports)
            << apps[i];
        EXPECT_EQ(counter("spap.skipped_symbols"),
                  rows[i].skippedSymbols)
            << apps[i];
    }

    // Parallel sweep of the same work: one cumulative "*" record whose
    // spap.* counters equal the sum of the serial per-app records.
    const size_t before_parallel = already + records.size();
    ExperimentRunner parallel_runner;
    parallel_runner.forEachApp(
        "HML",
        [&](const LoadedApp &app, size_t) {
            const size_t capacity =
                app.workload.app.totalStates() / 4 + 8;
            runAppConfig(app, 0.01, capacity);
        },
        /*jobs=*/8);

    std::ifstream in2(json_path);
    std::vector<telemetry::NamedSnapshot> all =
        telemetry::readTelemetryRecords(in2, &error);
    ASSERT_GT(all.size(), before_parallel);
    const telemetry::NamedSnapshot &cumulative = all.back();
    EXPECT_EQ(cumulative.app, "*");

    std::map<std::string, uint64_t> summed;
    for (const telemetry::NamedSnapshot &r : records) {
        for (const auto &[k, v] :
             withPrefix(r.snap.counters, "spap."))
            summed[k] += v;
    }
    EXPECT_EQ(withPrefix(cumulative.snap.counters, "spap."), summed);
}

} // namespace
} // namespace sparseap
