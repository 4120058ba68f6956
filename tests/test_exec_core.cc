/** @file Unit tests for the ExecCore latching fast path. */

#include <algorithm>
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/exec_core.h"
#include "sim/engine.h"
#include "sim/profiler.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"

namespace sparseap {
namespace {

std::span<const uint8_t>
bytes(const std::string &s)
{
    return {reinterpret_cast<const uint8_t *>(s.data()), s.size()};
}

TEST(ExecCore, DistinctBytes)
{
    Bitset256 set = ExecCore::distinctBytes(bytes("abca"));
    EXPECT_EQ(set.count(), 3);
    EXPECT_TRUE(set.test('a'));
    EXPECT_TRUE(set.test('c'));
    EXPECT_FALSE(set.test('d'));
    EXPECT_TRUE(ExecCore::distinctBytes({}).empty());
}

TEST(ExecCore, LatchedGapReportsEveryCycleOnceEnabled)
{
    // a.* with a reporting star: after 'a', the star reports on every
    // remaining symbol.
    Application app("t", "T");
    Nfa nfa("g");
    StateId a = nfa.addState(SymbolSet::single('a'), StartKind::AllInput);
    StateId star = nfa.addState(SymbolSet::all(), StartKind::None, true);
    nfa.addEdge(a, star);
    nfa.addEdge(star, star);
    nfa.finalize();
    app.addNfa(std::move(nfa));

    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("xxaxxx"));
    // star enabled from position 3 on: reports at 3, 4, 5.
    ASSERT_EQ(r.reports.size(), 3u);
    EXPECT_EQ(r.reports[0].position, 3u);
    EXPECT_EQ(r.reports[2].position, 5u);
}

TEST(ExecCore, LatchedCascadePermanentlyEnablesSuccessors)
{
    // start(.)* -> b : the universal self-loop start latches; 'b' must
    // then fire at every 'b' from position 1 on.
    Application app("t", "T");
    Nfa nfa("g");
    StateId star = nfa.addState(SymbolSet::all(), StartKind::AllInput);
    StateId b = nfa.addState(SymbolSet::single('b'), StartKind::None,
                             true);
    nfa.addEdge(star, star);
    nfa.addEdge(star, b);
    nfa.finalize();
    app.addNfa(std::move(nfa));

    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("bbxb"));
    // b is enabled from position 1 (star activates at 0): hits at 1, 3.
    ASSERT_EQ(r.reports.size(), 2u);
    EXPECT_EQ(r.reports[0].position, 1u);
    EXPECT_EQ(r.reports[1].position, 3u);
}

TEST(ExecCore, UniversalWithoutSelfLoopDoesNotLatch)
{
    // a -> any -> c: the wildcard has no self-loop; it is enabled for
    // exactly one cycle after each 'a'.
    Application app("t", "T");
    app.addNfa(compileRegex("a.c", "t"));
    FlatAutomaton fa(app);
    Engine engine(fa);
    EXPECT_EQ(engine.run(bytes("aXc")).reports.size(), 1u);
    EXPECT_EQ(engine.run(bytes("aXXc")).reports.size(), 0u);
}

TEST(ExecCore, UniversalityIsRelativeToTheInputAlphabet)
{
    // The gap accepts only [ab]; over an input containing just a/b it
    // is universal and latches; over an input with 'z' it is not.
    Application app("t", "T");
    Nfa nfa("g");
    StateId a = nfa.addState(SymbolSet::single('a'), StartKind::AllInput);
    StateId gap = nfa.addState(parseSymbolSet("[ab]"), StartKind::None);
    StateId b = nfa.addState(SymbolSet::single('b'), StartKind::None,
                             true);
    nfa.addEdge(a, gap);
    nfa.addEdge(gap, gap);
    nfa.addEdge(gap, b);
    nfa.finalize();
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);
    Engine engine(fa);

    // Alphabet {a, b}: gap latches after the first 'a'; every later 'b'
    // reports.
    EXPECT_EQ(engine.run(bytes("aabbb")).reports.size(), 3u);
    // Alphabet {a, b, z}: 'z' kills the gap, so only the 'b' right after
    // the gap run reports; the final 'b' has no live thread.
    EXPECT_EQ(engine.run(bytes("aabzb")).reports.size(), 1u);
}

TEST(ExecCore, IdleTracksPermanence)
{
    Application app("t", "T");
    Nfa nfa("g");
    StateId s = nfa.addState(SymbolSet::all(), StartKind::None);
    nfa.addEdge(s, s);
    nfa.finalize(false);
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);

    ExecCore core(fa);
    core.reset(ExecCore::distinctBytes(bytes("xx")), nullptr, false);
    EXPECT_TRUE(core.idle());
    core.enableState(0); // universal + self-loop: latches immediately
    EXPECT_FALSE(core.idle());
    ReportList reports;
    core.step('x', 0, &reports);
    EXPECT_FALSE(core.idle()); // latched forever
}

TEST(ExecCore, ProfilerSeesLatchedSuccessors)
{
    // start(.)* -> q where 'q' never occurs: q is still *enabled*
    // (hence hot) from cycle 1 on.
    Application app("t", "T");
    Nfa nfa("g");
    StateId star = nfa.addState(SymbolSet::all(), StartKind::AllInput);
    StateId q = nfa.addState(SymbolSet::single('q'), StartKind::None);
    nfa.addEdge(star, star);
    nfa.addEdge(star, q);
    nfa.finalize();
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);
    Engine engine(fa);
    HotStateProfiler prof(fa.size());
    engine.run(bytes("xy"), &prof);
    EXPECT_TRUE(prof.hot(0));
    EXPECT_TRUE(prof.hot(1));
}

/**
 * A state the lookahead filters leaves no trace. A split-style core
 * (no starts, driven by enableState) steps 'a' with lookahead 'x': the
 * successor t, which accepts only 'b', is dropped, and the core is idle
 * at the 'x', so the caller skips that step and the epoch does not
 * advance. Enabled again before the 'b', t must fire; a mark left by
 * the filter would make that enable a no-op.
 */
TEST(ExecCore, LookaheadFilteredStateLeavesNoTrace)
{
    Application app("t", "T");
    Nfa nfa("g");
    StateId a = nfa.addState(SymbolSet::single('a'), StartKind::None);
    StateId t = nfa.addState(SymbolSet::single('b'), StartKind::None,
                             true);
    nfa.addEdge(a, t);
    nfa.finalize(false);
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);

    ExecCore core(fa);
    core.reset(ExecCore::distinctBytes(bytes("axb")), nullptr, false);
    ReportList reports;
    core.enableState(a);
    core.step('a', 0, &reports, 'x');
    EXPECT_TRUE(core.idle()); // t cannot take the 'x': not enqueued
    // Position 1 ('x') is skipped while idle; t is enabled for 2.
    core.enableState(t);
    EXPECT_FALSE(core.idle());
    core.step('b', 2, &reports);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].position, 2u);
    EXPECT_EQ(reports[0].state, t);
}

/**
 * Quiet steps are no-ops. Random automata run on two cores over one
 * input: one skips every symbol quiet() proves idle, the way
 * EngineSession does, and one steps every symbol with lookahead. Both
 * step a chunk's last symbol without it, at random chunk ends, where
 * their saveState() must agree and the skipping core is sometimes
 * suspended into a fresh core. Half the trials are literal rule sets
 * (chains with latched `.*` gaps, `b+` self-loops and planted matches),
 * half random graphs (chains, latched and reporting wildcards,
 * reporting starts, matchingBytes planted); some run over a narrow
 * alphabet, some declare the full one, and a quarter drive the core the
 * way the split drives its cold side: no starts, random enables between
 * steps. Reports must agree one for one (and, undriven, with the naive
 * simulator), and the trials must take quiet steps.
 */
TEST(ExecCore, QuietStepsAreNoOps)
{
    Rng rng(20181023);
    uint64_t quiet_steps = 0, steps = 0;
    size_t quiet_trials = 0, reporting_trials = 0;
    size_t latched_reporting = 0, permanent_reporting = 0, plus_loops = 0;
    for (int trial = 0; trial < 240; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const unsigned alphabet = trial % 3 == 0 ? 5 : 48;
        std::vector<std::vector<uint8_t>> matches;
        Application app("t", "T");
        if (trial % 2 == 0) {
            app = testing::randomRuleSet(rng, 2 + rng.index(12), alphabet,
                                         &matches);
        } else {
            testing::RandomNfaParams params;
            params.maxStates = 30;
            params.avgOutDegree = 0.6;
            params.backEdgeProb = 0.1;
            params.reportProb = 0.3;
            params.universalProb = 0.25;
            params.sodProb = 0.1;
            params.maxSymbols = 4;
            params.alphabetSize = alphabet;
            app = testing::randomApplication(rng, 1 + rng.index(4), params);
            for (const Nfa &nfa : app.nfas())
                matches.push_back(testing::matchingBytes(nfa));
        }
        std::vector<uint8_t> input = testing::randomInput(rng, 400, alphabet);
        testing::plantMatches(app, matches, rng, &input);
        const Bitset256 declared = trial % 4 < 2
                                       ? Bitset256::all()
                                       : ExecCore::distinctBytes(input);
        const bool driven = trial % 4 == 1;

        FlatAutomaton fa(app);
        for (GlobalStateId s = 0; s < fa.size(); ++s) {
            const auto succ = fa.successors(s);
            const bool loop =
                std::find(succ.begin(), succ.end(), s) != succ.end();
            const bool wild = fa.symbols(s) == SymbolSet::all();
            latched_reporting += loop && wild && fa.reporting(s);
            plus_loops += loop && !wild;
            permanent_reporting += fa.reporting(s) && !wild &&
                                   fa.start(s) == StartKind::AllInput;
        }

        auto skipping = std::make_unique<ExecCore>(fa);
        ExecCore stepping(fa);
        skipping->reset(declared, nullptr, !driven);
        stepping.reset(declared, nullptr, !driven);
        ReportList got, want;
        uint64_t trial_quiet = 0;
        size_t chunk_end = 1 + rng.index(64);
        for (size_t i = 0; i < input.size(); ++i) {
            const bool last = i + 1 == chunk_end || i + 1 == input.size();
            if (last) {
                skipping->step(input[i], i, &got);
                stepping.step(input[i], i, &want);
            } else {
                stepping.step(input[i], i, &want, input[i + 1]);
                if (skipping->quiet(input[i], input[i + 1]))
                    ++trial_quiet;
                else
                    skipping->step(input[i], i, &got, input[i + 1]);
            }
            ++steps;
            if (driven && rng.chance(0.08)) {
                const GlobalStateId s =
                    static_cast<GlobalStateId>(rng.index(fa.size()));
                skipping->enableState(s);
                stepping.enableState(s);
            }
            if (!last)
                continue;
            ExecCore::Snapshot a, b;
            skipping->saveState(&a);
            stepping.saveState(&b);
            ASSERT_EQ(a.dynamic, b.dynamic) << "position " << i;
            ASSERT_EQ(a.permanent, b.permanent) << "position " << i;
            if (rng.chance(0.5)) {
                skipping = std::make_unique<ExecCore>(fa);
                skipping->restoreState(declared, a);
            }
            chunk_end = i + 2 + rng.index(64);
        }
        ASSERT_EQ(got, want);
        if (!driven) {
            std::sort(got.begin(), got.end());
            EXPECT_EQ(got, testing::naiveSimulate(app, input));
        }
        quiet_steps += trial_quiet;
        quiet_trials += trial_quiet > 0 ? 1 : 0;
        reporting_trials += want.empty() ? 0 : 1;
    }
    std::printf("quiet steps: %llu of %llu symbols, in %zu trials; %zu "
                "reporting trials; %zu latched reporting, %zu reporting "
                "starts, %zu b+ loops\n",
                static_cast<unsigned long long>(quiet_steps),
                static_cast<unsigned long long>(steps), quiet_trials,
                reporting_trials, latched_reporting, permanent_reporting,
                plus_loops);
    EXPECT_GE(quiet_trials, 150u);
    EXPECT_GE(reporting_trials, 200u);
    EXPECT_GE(latched_reporting, 20u);
    EXPECT_GE(permanent_reporting, 20u);
    EXPECT_GE(plus_loops, 20u);
}

/** Property: heavy-wildcard random NFAs still match the naive oracle. */
TEST(ExecCore, PropertyWildcardHeavyMatchesNaive)
{
    Rng rng(31337);
    for (int trial = 0; trial < 40; ++trial) {
        testing::RandomNfaParams params;
        params.universalProb = 0.5; // stress latching hard
        params.backEdgeProb = 0.3;
        params.reportProb = 0.35;
        Application app =
            testing::randomApplication(rng, 1 + rng.index(4), params);
        std::vector<uint8_t> input = testing::randomInput(rng, 200, 8);

        FlatAutomaton fa(app);
        Engine engine(fa);
        ReportList got = engine.run(input).reports;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, testing::naiveSimulate(app, input))
            << "trial " << trial;
    }
}

} // namespace
} // namespace sparseap
