/** @file End-to-end tests for the BaseAP/SpAP executor. */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "spap/executor.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

std::span<const uint8_t>
bytes(const std::string &s)
{
    return {reinterpret_cast<const uint8_t *>(s.data()), s.size()};
}

TEST(Baseline, BatchesAndCycles)
{
    Application app("a", "A");
    for (int i = 0; i < 4; ++i)
        app.addNfa(compileRegex("abcde", "p"));
    ApConfig config;
    config.capacity = 10; // 2 NFAs per batch
    BaselineResult r =
        runBaseline(app, config, bytes("0123456789"), false);
    EXPECT_EQ(r.batches, 2u);
    EXPECT_EQ(r.cycles, 20u);
    EXPECT_TRUE(r.reports.empty()); // not collected
}

TEST(Baseline, CollectsReportsWhenAsked)
{
    Application app("a", "A");
    app.addNfa(compileRegex("ab", "p"));
    ApConfig config;
    BaselineResult r = runBaseline(app, config, bytes("abab"), true);
    EXPECT_EQ(r.reports.size(), 2u);
}

TEST(Executor, ProfileSplitRespectsFraction)
{
    Application app("a", "A");
    app.addNfa(compileRegex("ab", "p"));
    AppTopology topo(app);
    ExecutionOptions opts;
    opts.profileFraction = 0.25;
    opts.profileReferenceBytes = 0;
    std::vector<uint8_t> input(100, 'x');
    PreparedPartition prep = preparePartition(topo, opts, input);
    EXPECT_EQ(prep.profileInput.size(), 25u);
    EXPECT_EQ(prep.testInput.size(), 75u);

    // The default reference emulates the paper's 1 MiB stream: 0.1%
    // profiling means ~1 KiB regardless of the simulated input length.
    ExecutionOptions referenced;
    referenced.profileFraction = 0.001;
    std::vector<uint8_t> big(8192, 'x');
    PreparedPartition prep2 = preparePartition(topo, referenced, big);
    EXPECT_EQ(prep2.profileInput.size(), 1048u);

    // ...clamped to half the input for short streams.
    std::vector<uint8_t> small(1000, 'x');
    PreparedPartition prep3 = preparePartition(topo, referenced, small);
    EXPECT_EQ(prep3.profileInput.size(), 500u);
}

TEST(Executor, FullInputAsTestForAnchoredApps)
{
    Application app("a", "A");
    app.addNfa(compileRegex("^ab", "p"));
    AppTopology topo(app);
    ExecutionOptions opts;
    opts.profileFraction = 0.25;
    opts.fullInputAsTest = true;
    std::vector<uint8_t> input(100, 'x');
    PreparedPartition prep = preparePartition(topo, opts, input);
    EXPECT_EQ(prep.testInput.size(), 100u);
}

TEST(Executor, PerfectlyColdTailGivesSpeedup)
{
    // Deep chains whose tails never fire: the hot set shrinks to the
    // profiled prefix and the baseline's extra batches disappear.
    Application app("a", "A");
    for (int i = 0; i < 8; ++i) {
        app.addNfa(compileRegex(
            "q" + std::string(1, static_cast<char>('a' + i)) +
                "0123456789abcdef",
            "p" + std::to_string(i)));
    }
    AppTopology topo(app);
    ExecutionOptions opts;
    opts.ap.capacity = app.totalStates() / 4 + 2;
    opts.profileFraction = 0.1;
    std::vector<uint8_t> input(4000, 'z'); // nothing ever matches 'q'
    SpapRunStats stats = runBaseApSpap(topo, opts, input);
    EXPECT_GT(stats.baselineBatches, stats.baseApBatches);
    EXPECT_GT(stats.speedup, 1.0);
    EXPECT_EQ(stats.intermediateReports, 0u);
    EXPECT_EQ(stats.spApCycles, 0u);
    EXPECT_GT(stats.resourceSavings, 0.5);
}

TEST(Executor, MispredictionRoutesThroughSpap)
{
    // The profile window sees only 'za'; the test stream contains the
    // full "zabc", so 'b','c' are mispredicted cold and must be handled
    // by SpAP events.
    Application app("a", "A");
    app.addNfa(compileRegex("zabc", "p"));
    // Ballast NFA so the app needs two batches at half capacity.
    app.addNfa(compileRegex("qrstu", "q"));
    AppTopology topo(app);
    ExecutionOptions opts;
    opts.ap.capacity = 6;
    opts.profileFraction = 0.1;
    opts.fillOptimization = false;

    std::string text = "za";
    text += std::string(18, 'x'); // profile = first 4 chars
    text += "zabc";
    text += std::string(10, 'x');
    SpapRunStats stats =
        runBaseApSpap(topo, opts, bytes(text), /*collect_reports=*/true);

    EXPECT_GT(stats.intermediateReports, 0u);
    EXPECT_GT(stats.spApCycles, 0u);
    ASSERT_EQ(stats.reports.size(), 1u); // the zabc match, via SpAP
}

TEST(Executor, JumpRatioHighWhenEventsSparse)
{
    Application app("a", "A");
    app.addNfa(compileRegex("zabcdefgh", "p"));
    app.addNfa(compileRegex("qrstuvwxy", "q"));
    AppTopology topo(app);
    ExecutionOptions opts;
    opts.ap.capacity = 10;
    opts.profileFraction = 0.05;
    opts.fillOptimization = false;

    std::string text(2000, 'x');
    text += "zab"; // a single late partial match
    text += std::string(2000, 'x');
    SpapRunStats stats = runBaseApSpap(topo, opts, bytes(text));
    if (stats.spApBatches > 0 && stats.intermediateReports > 0) {
        EXPECT_GT(stats.jumpRatio, 0.9);
    }
}

/**
 * THE core invariant (DESIGN.md invariant 1): for random applications,
 * random inputs and profile-derived partitions, the merged BaseAP+SpAP
 * report stream equals the monolithic execution's reports.
 */
TEST(Executor, PropertyExecutionEquivalence)
{
    Rng rng(2024);
    for (int trial = 0; trial < 60; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.sodProb = trial % 4 == 0 ? 0.5 : 0.0;
        Application app =
            testing::randomApplication(rng, 1 + rng.index(5), params);
        std::vector<uint8_t> input = testing::randomInput(rng, 300, 16);

        AppTopology topo(app);
        ExecutionOptions opts;
        opts.ap.capacity = 1 + rng.index(app.totalStates() + 10);
        opts.profileFraction = 0.05 + rng.real() * 0.4;
        opts.fillOptimization = trial % 2 == 0;
        opts.partition.dedupeIntermediates = trial % 3 == 0;

        PreparedPartition prep = preparePartition(topo, opts, input);
        SpapRunStats stats = runBaseApSpap(topo, opts, prep, true);

        ReportList want = testing::naiveSimulate(
            app, prep.testInput);
        EXPECT_EQ(stats.reports, want) << "trial " << trial;

        // Cycle accounting sanity.
        EXPECT_EQ(stats.baseApCycles,
                  stats.baseApBatches * stats.testLength);
        EXPECT_GE(stats.baselineBatches, stats.baseApBatches);
        if (stats.spApBatches == 0) {
            EXPECT_EQ(stats.spApCycles, 0u);
        }
    }
}

/**
 * runBaseApSpap sorts its merged reports run by run within each
 * segment (the hot list, then each cold batch's) and merges the
 * segments. The result must equal the fully sorted reports of a
 * whole-app run: on Fermi, whose one hot segment holds many reports per
 * position, and on HM1500, whose planted matches past the profile
 * prefix report from several cold batches.
 */
TEST(Executor, MergedReportsEqualFullySortedList)
{
    for (const char *abbr : {"Fermi", "HM1500"}) {
        SCOPED_TRACE(abbr);
        Workload w = generateWorkload(abbr, 7, 5);
        Rng rng(20181020);
        size_t len = 16 * 1024;
        if (w.inputBytesCap > 0)
            len = std::min(len, w.inputBytesCap);
        std::vector<uint8_t> input = synthesizeInput(w.input, len, rng);
        if (!w.fullInputAsTest) {
            // Matches of the first NFAs in the second half: their deep
            // states stay cold in the profile and report from SpAP.
            size_t at = len / 2;
            for (uint32_t ni = 0; ni < w.app.nfaCount() && ni < 40; ++ni) {
                const std::vector<uint8_t> m =
                    testing::matchingBytes(w.app.nfa(ni));
                if (m.empty() || at + m.size() > len)
                    continue;
                std::copy(m.begin(), m.end(), input.begin() + at);
                at += m.size() + 7;
            }
        }

        AppTopology topo(w.app);
        ExecutionOptions opts;
        opts.fullInputAsTest = w.fullInputAsTest;
        opts.ap.capacity = w.app.totalStates() / 16 + 8;
        PreparedPartition prep = preparePartition(topo, opts, input);
        const SpapRunStats stats = runBaseApSpap(topo, opts, prep, true);

        FlatAutomaton fa(w.app);
        ReportList want = Engine(fa).run(prep.testInput).reports;
        std::sort(want.begin(), want.end());
        EXPECT_GT(want.size(), 0u);
        EXPECT_EQ(stats.reports, want);
        std::printf("%s: %zu reports, %zu SpAP batches\n", abbr,
                    want.size(), stats.spApBatches);
        if (std::string(abbr) == "HM1500") {
            EXPECT_GT(stats.spApBatches, 1u);
        }
    }
}

/** Property: forcing every layer cut still preserves equivalence. */
TEST(Executor, PropertyEquivalenceAtForcedLayers)
{
    Rng rng(2025);
    for (int trial = 0; trial < 30; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.4;
        params.reportProb = 0.4;
        Application app = testing::randomApplication(rng, 2, params);
        std::vector<uint8_t> input = testing::randomInput(rng, 150, 8);
        AppTopology topo(app);

        // Bypass profiling: cut at arbitrary (legal) layers.
        PartitionLayers layers;
        for (uint32_t u = 0; u < app.nfaCount(); ++u) {
            const uint32_t lo =
                testing::minPartitionLayer(app.nfa(u), topo.nfa(u));
            layers.k.push_back(static_cast<uint32_t>(
                rng.uniform(lo, topo.nfa(u).maxOrder)));
        }
        PartitionedApp part = partitionApplication(topo, layers);

        // Hand-roll the BaseAP -> SpAP flow on the full input.
        FlatAutomaton hot_fa(part.hot);
        Engine hot_engine(hot_fa);
        SimResult hot_run = hot_engine.run(input);

        ReportList got;
        std::vector<SpapEvent> events;
        for (const Report &r : hot_run.reports) {
            const GlobalStateId target = part.intermediateTarget[r.state];
            if (target != kInvalidGlobal) {
                events.push_back(
                    {r.position, part.originalToCold[target]});
            } else {
                got.push_back({r.position, part.hotToOriginal[r.state]});
            }
        }
        if (part.cold.nfaCount() > 0) {
            FlatAutomaton cold_fa(part.cold);
            SpapResult sr = runSpapMode(cold_fa, input, events);
            for (const Report &r : sr.reports)
                got.push_back(
                    {r.position, part.coldToOriginal[r.state]});
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, testing::naiveSimulate(app, input))
            << "trial " << trial;
    }
}

} // namespace
} // namespace sparseap
