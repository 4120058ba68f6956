/**
 * @file
 * Hot/cold split tests: the layer cut computed over a flattened
 * automaton equals each NFA's own topology; the whole-automaton DFA is
 * the "every state" subset of the one subset construction; auto runs a
 * built split against the naive oracle on deep random automata and on
 * rule-set-shaped ones whose merge folds cold states, with random
 * chunk boundaries, the input skip on and off, and suspend/resume into
 * fresh sessions at random offsets, byte-identical to Engine::run;
 * the test-scale workloads whose split builds match the sparse core on
 * reporting inputs, chunked and parked byte-identically to Engine::run;
 * the dense apps, decided from their own input, never split; and
 * concurrent first streams decide once and build the split once.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"
#include "sim/engine.h"
#include "sim/exec_core.h"
#include "sim/hot_dfa.h"
#include "sim/prefix_merge.h"
#include "sim/session.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"
#include "telemetry/metrics.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

ReportList
sorted(ReportList reports)
{
    std::sort(reports.begin(), reports.end());
    return reports;
}

/** Layers of @p fa from its own successor CSR. */
std::vector<uint32_t>
flatLayers(const FlatAutomaton &fa)
{
    return topologicalLayers(fa.size(), [&fa](StateId s) {
        return fa.successors(s);
    });
}

/** A flattened application's layers are its NFAs' own. */
TEST(Split, FlatLayersEqualEachNfaTopology)
{
    Rng rng(20181020);
    for (int trial = 0; trial < 20; ++trial) {
        testing::RandomNfaParams params;
        params.avgOutDegree = trial % 2 == 0 ? 0.4 : 1.6;
        Application app =
            testing::randomApplication(rng, 1 + rng.index(5), params);
        FlatAutomaton fa(app);
        const std::vector<uint32_t> layer = flatLayers(fa);
        for (uint32_t u = 0; u < app.nfaCount(); ++u) {
            const Topology topo = analyzeTopology(app.nfa(u));
            for (StateId s = 0; s < app.nfa(u).size(); ++s)
                EXPECT_EQ(layer[app.nfaOffset(u) + s], topo.order[s])
                    << "trial " << trial << " nfa " << u << " state "
                    << s;
        }
    }
}

/**
 * One subset construction: selecting every state builds the same
 * tables as the whole-automaton build, with empty cold lists.
 */
TEST(Split, WholeDfaIsTheEveryStateSubset)
{
    Rng rng(20181021);
    for (int trial = 0; trial < 10; ++trial) {
        testing::RandomNfaParams params;
        params.maxStates = 14;
        params.reportProb = 0.4;
        params.sodProb = 0.3;
        Application app = testing::randomApplication(rng, 2, params);
        FlatAutomaton fa(app);
        HotDfa::Limits roomy;
        roomy.stateBudget = 1 << 20;
        roomy.tableBytes = size_t{1} << 30;
        const auto whole = HotDfa::build(fa, roomy);
        const std::vector<uint8_t> every(fa.size(), 1);
        const auto subset = HotDfa::build(fa, roomy, every);
        ASSERT_NE(whole, nullptr);
        ASSERT_NE(subset, nullptr);
        EXPECT_FALSE(whole->split());
        EXPECT_TRUE(subset->split());
        const HotDfa::Parts a = whole->parts();
        const HotDfa::Parts b = subset->parts();
        EXPECT_EQ(a.states, b.states);
        EXPECT_TRUE(std::equal(a.table.begin(), a.table.end(),
                               b.table.begin(), b.table.end()));
        EXPECT_TRUE(std::equal(a.reportBegin.begin(), a.reportBegin.end(),
                               b.reportBegin.begin(),
                               b.reportBegin.end()));
        EXPECT_TRUE(std::equal(a.reportIds.begin(), a.reportIds.end(),
                               b.reportIds.begin(), b.reportIds.end()));
        EXPECT_TRUE(std::equal(a.skipIndex.begin(), a.skipIndex.end(),
                               b.skipIndex.begin(), b.skipIndex.end()));
        for (uint32_t s = 0; s < subset->states(); ++s)
            EXPECT_TRUE(subset->coldEnables(s).empty());
    }
}

/** What expectSplitMatches' runs skipped. */
struct SplitCounts
{
    uint64_t skipped = 0; ///< input symbols the skip jumped
    uint64_t quiet = 0;   ///< cold steps ExecCore::quiet() skipped
    /** Cold steps of a one-chunk replay only the byte after next
     *  proved quiet (secondByteQuietSteps). */
    uint64_t secondByteQuiet = 0;

    SplitCounts &
    operator+=(const SplitCounts &o)
    {
        skipped += o.skipped;
        quiet += o.quiet;
        secondByteQuiet += o.secondByteQuiet;
        return *this;
    }
};

/**
 * Replay @p split's cold side over @p input as one chunk, skip off, the
 * way EngineSession steps it, and count the cold steps quiet() proves
 * idle from the byte after next but not from the next byte alone.
 */
uint64_t
secondByteQuietSteps(const HotDfa &split, std::span<const uint8_t> input)
{
    ExecCore core(split.coldAutomaton(), split.originalIds(),
                  ExecCore::Lookahead::TwoSymbols);
    core.reset(ExecCore::distinctBytes(input), nullptr,
               /*install_starts=*/false);
    for (GlobalStateId s : split.coldEnables(0))
        core.enableState(s);
    constexpr int kNone = ExecCore::kNoLookahead;
    const size_t n = input.size();
    uint32_t state = 0;
    uint64_t count = 0;
    ReportList reports;
    for (size_t j = 0; j < n; ++j) {
        state = split.next(state, input[j]);
        if (!core.idle()) {
            const int next = j + 1 < n ? input[j + 1] : kNone;
            const int next2 = j + 2 < n ? input[j + 2] : kNone;
            const bool quiet1 = next != kNone && core.quiet(input[j], next);
            const bool quiet2 =
                next2 != kNone && core.quiet(input[j], next, next2);
            count += quiet2 && !quiet1 ? 1 : 0;
            if (!quiet1 && !quiet2)
                core.step(input[j], j, &reports, next, next2);
        }
        for (GlobalStateId s : split.coldEnables(state))
            core.enableState(s);
    }
    return count;
}

/** Universal self-loop state: latches on the sparse core. */
bool
latches(const FlatAutomaton &fa, GlobalStateId s)
{
    const auto succ = fa.successors(s);
    return fa.symbols(s) == SymbolSet::all() &&
           std::find(succ.begin(), succ.end(), s) != succ.end();
}

/**
 * Auto on @p fa's built split over @p input, skip off and on: one whole
 * run, and one over random chunk boundaries with suspend/resume into a
 * fresh session at random offsets. Sorted reports equal @p want; the
 * chunked stream is byte-identical to the whole run.
 *
 * @return symbols the chunked runs skipped, cold steps they proved
 *         quiet, and cold steps of a replay only the second byte proved
 *         quiet
 */
SplitCounts
expectSplitMatches(const FlatAutomaton &fa, std::span<const uint8_t> input,
                   const ReportList &want, Rng &rng)
{
    SplitCounts counts;
    counts.secondByteQuiet = secondByteQuietSteps(*fa.ensureSplit(), input);
    for (bool skip : {false, true}) {
        SCOPED_TRACE(skip ? "skip" : "noskip");
        Engine engine(fa, EngineMode::Auto);
        engine.setInputSkip(skip);
        const SimResult whole = engine.run(input);
        EXPECT_EQ(engine.resolvedMode(), EngineMode::Split);
        EXPECT_EQ(sorted(whole.reports), want);

        SessionConfig config;
        config.mode = EngineMode::Auto;
        config.inputSkip = skip;
        config.alphabet = ExecCore::distinctBytes(input);
        auto session = std::make_unique<EngineSession>(fa, config);
        session->restart();
        ReportList got;
        size_t at = 0;
        while (at < input.size()) {
            const size_t take =
                std::min(input.size() - at, 1 + rng.index(97));
            session->feed(input.subspan(at, take));
            at += take;
            EXPECT_EQ(session->resolvedMode(), EngineMode::Split);
            EXPECT_FALSE(session->dfaPhase());
            const ReportList part = session->takeReports();
            got.insert(got.end(), part.begin(), part.end());
            if (rng.chance(0.3)) {
                const EngineSession::Snapshot snap = session->suspend();
                session = std::make_unique<EngineSession>(fa);
                session->resume(snap);
            }
        }
        EXPECT_TRUE(session->stats().usedSplit);
        counts.skipped += session->stats().skippedSymbols;
        counts.quiet += session->stats().quietSteps;
        EXPECT_EQ(got, whole.reports);
    }
    return counts;
}

/** True iff some report of @p reports comes from below the layer cut. */
bool
reportsFromCold(const ReportList &reports,
                const std::vector<uint32_t> &layer)
{
    return std::any_of(reports.begin(), reports.end(),
                       [&](const Report &r) {
                           return layer[r.state] > Engine::kSplitLayers;
                       });
}

/**
 * The oracle gate: deep random automata (states below the layer cut,
 * universal self-loops on both sides of it, start-of-data starts and
 * starts below the cut), the split built, then auto over random chunk
 * boundaries with suspend/resume into a fresh session at random
 * offsets, skip on and off (expectSplitMatches). Only cases that
 * report count, and enough of them must — from the cold side too. The
 * cold side must take quiet steps, some of them proved quiet only by
 * the byte after next.
 */
TEST(Split, PropertyMatchesNaiveOnDeepRandomAutomata)
{
    Rng rng(20181022);
    size_t deep_cases = 0, bailouts = 0;
    size_t reporting_cases = 0, cold_reporting_cases = 0;
    size_t latch_both_sides = 0, sod_cases = 0, cold_start_cases = 0;
    SplitCounts counts;
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const bool rule_set = trial >= 150;
        testing::RandomNfaParams params;
        params.minStates = 8;
        params.maxStates = 28;
        params.avgOutDegree = 0.35;
        params.backEdgeProb = 0.05;
        params.reportProb = 0.25;
        params.universalProb = 0.25;
        params.sodProb = trial % 3 == 0 ? 0.6 : 0.1;
        params.extraStartProb = 0.15;
        // Wide alphabets with small symbol sets leave quiet gaps the
        // skip can jump; narrow ones report densely.
        params.alphabetSize = trial % 2 == 0 ? 8 : 96;
        params.maxSymbols = trial % 2 == 0 ? 4 : 3;
        // The last 50 trials are rule sets over an 8-byte alphabet:
        // literal chains behind latched `.*` gaps, whose post-gap
        // literals mostly cannot carry on to the byte after next, so
        // the cold side takes steps only the second byte proves quiet.
        std::vector<std::vector<uint8_t>> matches;
        if (rule_set)
            params.alphabetSize = 8;
        Application app =
            rule_set ? testing::randomRuleSet(rng, 2 + rng.index(12),
                                              params.alphabetSize,
                                              &matches)
                     : testing::randomApplication(rng, 1 + rng.index(4),
                                                  params);
        FlatAutomaton fa(app);

        const std::vector<uint32_t> layer = flatLayers(fa);
        bool deep = false, hot_latch = false, cold_latch = false;
        bool cold_start = false;
        for (GlobalStateId s = 0; s < fa.size(); ++s) {
            const bool cold = layer[s] > Engine::kSplitLayers;
            deep = deep || cold;
            if (latches(fa, s))
                (cold ? cold_latch : hot_latch) = true;
            if (cold && fa.start(s) != StartKind::None)
                cold_start = true;
        }
        if (!deep)
            continue;
        ++deep_cases;
        if (fa.ensureSplit() == nullptr) {
            ++bailouts; // the budget guard, as in production
            continue;
        }
        latch_both_sides += hot_latch && cold_latch ? 1 : 0;
        sod_cases += fa.startOfDataStarts().empty() ? 0 : 1;
        cold_start_cases += cold_start ? 1 : 0;

        std::vector<uint8_t> input =
            testing::randomInput(rng, 600, params.alphabetSize);
        if (rule_set)
            testing::plantMatches(app, matches, rng, &input);
        const ReportList want = testing::naiveSimulate(app, input);
        if (want.empty())
            continue;
        ++reporting_cases;
        cold_reporting_cases += reportsFromCold(want, layer) ? 1 : 0;
        counts += expectSplitMatches(fa, input, want, rng);
    }
    std::printf("split oracle: %zu deep (%zu bailed), %zu reporting "
                "(%zu from cold states), %zu latch on both sides, %zu "
                "with sod starts, %zu with cold starts, %llu symbols "
                "skipped, %llu quiet cold steps, %llu quiet only by the "
                "second byte\n",
                deep_cases, bailouts, reporting_cases,
                cold_reporting_cases,
                latch_both_sides, sod_cases, cold_start_cases,
                static_cast<unsigned long long>(counts.skipped),
                static_cast<unsigned long long>(counts.quiet),
                static_cast<unsigned long long>(counts.secondByteQuiet));
    EXPECT_GE(reporting_cases, 50u);
    EXPECT_GE(cold_reporting_cases, 20u);
    EXPECT_GE(latch_both_sides, 5u);
    EXPECT_GE(sod_cases, 10u);
    EXPECT_GE(cold_start_cases, 5u);
    EXPECT_GT(counts.skipped, 0u);
    EXPECT_GT(counts.quiet, 0u);
    EXPECT_GT(counts.secondByteQuiet, 0u);
}

/**
 * The oracle gate on the merge: rule-set-shaped random automata whose
 * shared literal prefixes and twin `.*` gaps fold below the layer cut,
 * with planted matches (one at offset 0, for start-of-data rules), run
 * on the merged split by expectSplitMatches. The split's cold side is
 * the merge of the whole automaton, and enough cases must fold cold
 * states and report from cold states.
 */
TEST(Split, PropertyMergedSplitMatchesNaiveOnSharedPrefixes)
{
    Rng rng(20181023);
    constexpr unsigned kAlphabet = 8;
    size_t merged_cases = 0, cold_reporting_cases = 0;
    size_t merged_and_cold_reporting = 0;
    SplitCounts counts;
    for (int trial = 0; trial < 120; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::vector<std::vector<uint8_t>> matches;
        const Application app = testing::randomRuleSet(
            rng, 2 + rng.index(10), kAlphabet, &matches);
        FlatAutomaton fa(app);
        const std::vector<uint32_t> layer = flatLayers(fa);
        std::vector<GlobalStateId> remap;
        const MergedAutomaton merged =
            mergeEquivalentStates(fa, layer, &remap);
        bool cold_merged = false;
        for (GlobalStateId s = 0; s < fa.size(); ++s)
            cold_merged = cold_merged ||
                          (layer[s] > Engine::kSplitLayers &&
                           merged.original[remap[s]] != s);

        const auto split = fa.ensureSplit();
        ASSERT_NE(split, nullptr);
        ASSERT_EQ(split->coldAutomaton().size(), merged.automaton->size());

        std::vector<uint8_t> input =
            testing::randomInput(rng, 700, kAlphabet);
        for (int k = 0; k < 8; ++k) {
            const std::vector<uint8_t> &m =
                matches[rng.index(matches.size())];
            const size_t at = k == 0 ? 0 : rng.index(input.size() - m.size());
            std::copy(m.begin(), m.end(), input.begin() + at);
        }
        const ReportList want = testing::naiveSimulate(app, input);
        ASSERT_FALSE(want.empty());
        const bool cold_reports = reportsFromCold(want, layer);
        merged_cases += cold_merged ? 1 : 0;
        cold_reporting_cases += cold_reports ? 1 : 0;
        merged_and_cold_reporting += cold_merged && cold_reports ? 1 : 0;
        counts += expectSplitMatches(fa, input, want, rng);
    }
    std::printf("merged split oracle: %zu with merged cold states, %zu "
                "reporting from cold states, %zu both, %llu symbols "
                "skipped, %llu quiet cold steps, %llu quiet only by the "
                "second byte\n",
                merged_cases, cold_reporting_cases,
                merged_and_cold_reporting,
                static_cast<unsigned long long>(counts.skipped),
                static_cast<unsigned long long>(counts.quiet),
                static_cast<unsigned long long>(counts.secondByteQuiet));
    EXPECT_GE(merged_cases, 60u);
    EXPECT_GE(cold_reporting_cases, 60u);
    EXPECT_GE(merged_and_cold_reporting, 40u);
}

/**
 * The test-scale workloads whose split builds: auto runs it and its
 * sorted reports equal the pinned sparse core's, on inputs with
 * planted matches of the first pattern so that they report.
 */
TEST(Split, WorkloadsWhoseSplitBuildsMatchSparse)
{
    Rng rng(20180621);
    for (const char *abbr :
         {"Snort", "Snort_L", "DS", "ER", "TCP", "CAV", "Brill"}) {
        SCOPED_TRACE(abbr);
        Workload w = generateWorkload(abbr, 7, 5);
        FlatAutomaton fa(w.app);
        const auto split = fa.ensureSplit();
        ASSERT_NE(split, nullptr) << abbr << "@5% must split";
        size_t bytes = 8192;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        std::vector<uint8_t> input = synthesizeInput(w.input, bytes, rng);
        const std::vector<uint8_t> match = matchingBytes(w.app.nfa(0));
        ASSERT_FALSE(match.empty());
        for (size_t at = 100; at + match.size() <= input.size();
             at += input.size() / 4)
            std::copy(match.begin(), match.end(), input.begin() + at);

        Engine sparse(fa, EngineMode::Sparse);
        const ReportList want = sorted(sparse.run(input).reports);
        Engine engine(fa, EngineMode::Auto);
        const SimResult got = engine.run(input);
        EXPECT_EQ(engine.resolvedMode(), EngineMode::Split);
        std::printf("%s: %zu split states, %zu reports\n", abbr,
                    split->states(), want.size());
        EXPECT_GT(want.size(), 0u);
        EXPECT_EQ(sorted(got.reports), want);

        // Chunked and parked halfway, byte-identical to the whole run.
        SessionConfig config;
        config.mode = EngineMode::Auto;
        config.alphabet = ExecCore::distinctBytes(input);
        EngineSession first(fa, config);
        first.restart();
        const size_t half = input.size() / 2;
        for (size_t at = 0; at < half; at += 1000)
            first.feed(std::span(input).subspan(
                at, std::min<size_t>(1000, half - at)));
        ReportList chunked = first.takeReports();
        EngineSession second(fa, config);
        second.resume(first.suspend());
        second.feed(std::span(input).subspan(half));
        const ReportList tail = second.takeReports();
        chunked.insert(chunked.end(), tail.begin(), tail.end());
        EXPECT_EQ(chunked, got.reports);
    }
}

/**
 * The dense apps decide from their own input, as the daemon decides a
 * tenant at load: SPM, Fermi and HM run dense, so auto never splits
 * them — not even when their first stream is 512 zero bytes, which
 * would decide SPM and Fermi sparse had it come first. Each stream's
 * sorted reports equal the sparse core's.
 */
TEST(Split, DenseAppsDecidedFromOwnInputNeverSplit)
{
    size_t misled = 0; // apps the zeros alone would decide sparse
    for (const char *abbr : {"SPM", "Fermi", "HM"}) {
        SCOPED_TRACE(abbr);
        Workload w = generateWorkload(abbr, 7, 5);
        FlatAutomaton fa(w.app);
        Rng rng(20180621);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, 4096, rng);
        const std::optional<CoreDecision> d =
            fa.decideCore(input, Bitset256::all());
        ASSERT_TRUE(d.has_value());
        EXPECT_TRUE(d->dense) << d->describe();

        const std::vector<uint8_t> zeros(512, 0);
        if (!FlatAutomaton(w.app).decideCore(zeros, Bitset256::all())->dense)
            ++misled;
        SessionConfig config;
        config.mode = EngineMode::Auto;
        for (const std::vector<uint8_t> *stream : {&zeros, &input}) {
            EngineSession session(fa, config);
            session.restart();
            session.feed(*stream);
            EXPECT_NE(session.resolvedMode(), EngineMode::Sparse);
            EXPECT_NE(session.resolvedMode(), EngineMode::Split);
            EXPECT_EQ(sorted(session.takeReports()),
                      sorted(Engine(fa, EngineMode::Sparse)
                                 .run(*stream)
                                 .reports));
        }
        EXPECT_EQ(fa.splitIfBuilt(), nullptr);
    }
    EXPECT_GE(misled, 2u) << "SPM and Fermi decide sparse from zeros";
}

/**
 * First streams of an undecided automaton on four threads, each with
 * its own input: they decide the automaton once — every thread sees the
 * same decision, whichever input made it — and their next streams
 * build the split once and run it.
 */
TEST(Split, ConcurrentFirstStreamsDecideAndBuildOnce)
{
    Workload w = generateWorkload("Brill", 7, 5);
    FlatAutomaton fa(w.app);
    ASSERT_GE(fa.size(), Engine::kMinDenseStates) << "Brill must decide";
    Rng rng(20180621);
    std::vector<std::vector<uint8_t>> inputs;
    for (int t = 0; t < 4; ++t)
        inputs.push_back(synthesizeInput(w.input, 2048, rng));
    const uint64_t before = telemetry::snapshot().counters["split.builds"];

    std::vector<CoreDecision> seen(inputs.size());
    std::vector<EngineMode> resolved(inputs.size(), EngineMode::Auto);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < inputs.size(); ++t) {
        threads.emplace_back([&, t] {
            SessionConfig config;
            config.mode = EngineMode::Auto;
            EngineSession session(fa, config);
            session.restart();
            session.feed(inputs[t]); // decides, or finds the decision
            seen[t] = fa.coreDecision().value();
            session.restart();
            resolved[t] = session.resolvedMode();
            session.feed(inputs[t]);
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(telemetry::snapshot().counters["split.builds"] - before, 1u);
    ASSERT_NE(fa.splitIfBuilt(), nullptr);
    for (size_t t = 0; t < inputs.size(); ++t) {
        EXPECT_FALSE(seen[t].dense);
        EXPECT_EQ(seen[t].work, seen[0].work) << "thread " << t;
        EXPECT_EQ(resolved[t], EngineMode::Split);
    }
}

} // namespace
} // namespace sparseap
