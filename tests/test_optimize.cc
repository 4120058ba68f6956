/** @file Tests for common-prefix merging. */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/topology.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "sim/prefix_merge.h"
#include "support/random_nfa.h"

namespace sparseap {
namespace {

/** State counts of merging @p fa. */
OptimizeStats
mergeStats(const FlatAutomaton &fa)
{
    return {fa.size(), mergeEquivalentStates(fa).automaton->size()};
}

TEST(Optimize, MergesSharedLiteralPrefix)
{
    // Two rules sharing "abc": flattened, the prefix collapses.
    Application app("t", "T");
    app.addNfa(compileRegex("abcX", "r1"));
    app.addNfa(compileRegex("abcY", "r2"));
    OptimizeStats stats = measurePrefixMerging(app);
    EXPECT_EQ(stats.statesBefore, 8u);
    // a, b, c shared; X and Y distinct reporting: 5 states.
    EXPECT_EQ(stats.statesAfter, 5u);
    EXPECT_NEAR(stats.reduction(), 3.0 / 8.0, 1e-12);
}

TEST(Optimize, NeverMergesReportingStates)
{
    Application app("t", "T");
    app.addNfa(compileRegex("ab", "r1"));
    app.addNfa(compileRegex("ab", "r2")); // identical rule
    OptimizeStats stats = measurePrefixMerging(app);
    // 'a' states merge; the two reporting 'b' states must not.
    EXPECT_EQ(stats.statesAfter, 3u);
}

TEST(Optimize, NoFalseMergeOnDifferentPredecessors)
{
    // xb and yb: the two 'b' states have different predecessors and are
    // enabled on different cycles; they must not merge.
    Application app("t", "T");
    Nfa nfa("g");
    StateId x = nfa.addState(SymbolSet::single('x'), StartKind::AllInput);
    StateId y = nfa.addState(SymbolSet::single('y'), StartKind::AllInput);
    StateId b1 = nfa.addState(SymbolSet::single('b'));
    StateId b2 = nfa.addState(SymbolSet::single('b'));
    StateId r1 = nfa.addState(SymbolSet::single('1'), StartKind::None,
                              true);
    StateId r2 = nfa.addState(SymbolSet::single('2'), StartKind::None,
                              true);
    nfa.addEdge(x, b1);
    nfa.addEdge(y, b2);
    nfa.addEdge(b1, r1);
    nfa.addEdge(b2, r2);
    nfa.finalize();
    app.addNfa(std::move(nfa));

    OptimizeStats stats = mergeStats(FlatAutomaton(app));
    EXPECT_EQ(stats.statesAfter, stats.statesBefore);
}

TEST(Optimize, IdempotentAtFixpoint)
{
    Application app("t", "T");
    app.addNfa(compileRegex("GET /a", "r1"));
    app.addNfa(compileRegex("GET /b", "r2"));
    app.addNfa(compileRegex("GET /c", "r3"));
    FlatAutomaton flat(app);
    const MergedAutomaton once = mergeEquivalentStates(flat);
    OptimizeStats first{flat.size(), once.automaton->size()};
    OptimizeStats second = mergeStats(*once.automaton);
    EXPECT_LT(first.statesAfter, first.statesBefore);
    EXPECT_EQ(second.statesAfter, second.statesBefore);
}

TEST(Optimize, RemapTracksMergedIds)
{
    Application app("t", "T");
    app.addNfa(compileRegex("abX|abY", "r"));
    FlatAutomaton flat(app);
    std::vector<GlobalStateId> remap;
    const MergedAutomaton merged = mergeEquivalentStates(flat, {}, &remap);
    ASSERT_EQ(remap.size(), 6u);
    // Position order is a,b,X,a,b,Y: both 'a' positions share one id,
    // as do both 'b' positions.
    EXPECT_EQ(remap[0], remap[3]);
    EXPECT_EQ(remap[1], remap[4]);
    EXPECT_NE(remap[2], remap[5]); // reporting states stay distinct
    for (GlobalStateId id : remap)
        EXPECT_LT(id, merged.automaton->size());
}

/**
 * Property: merging preserves the report stream exactly, up to the id
 * remapping.
 */
TEST(Optimize, PropertyReportsPreserved)
{
    Rng rng(777);
    for (int trial = 0; trial < 40; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.universalProb = 0.1;
        Application app =
            testing::randomApplication(rng, 1 + rng.index(3), params);
        std::vector<uint8_t> input = testing::randomInput(rng, 200, 16);

        FlatAutomaton fa_before(app);
        Engine before(fa_before);
        ReportList want = before.run(input).reports;

        std::vector<GlobalStateId> remap;
        const MergedAutomaton merged =
            mergeEquivalentStates(fa_before, {}, &remap);
        Engine after(*merged.automaton);
        ReportList got = after.run(input).reports;

        // Remap the reference reports into merged ids and compare.
        for (Report &r : want)
            r.state = remap[r.state];
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

/**
 * Property: classes are numbered by their lowest member, every merged
 * state keeps its members' layer, and only non-reporting states of one
 * layer, symbol set and start kind share a class — so the split's layer
 * cut means the same on the merged automaton.
 */
TEST(Optimize, PropertyClassesKeepLayersAndRepresentatives)
{
    Rng rng(779);
    size_t merging_cases = 0;
    for (int trial = 0; trial < 60; ++trial) {
        // Cyclic random graphs, and rule sets that share prefixes.
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.2;
        params.universalProb = 0.2;
        params.extraStartProb = 0.2;
        params.alphabetSize = 4;
        params.maxSymbols = 1;
        std::vector<std::vector<uint8_t>> matches;
        const Application app =
            trial % 2 == 0
                ? testing::randomApplication(rng, 2 + rng.index(4), params)
                : testing::randomRuleSet(rng, 2 + rng.index(8), 4,
                                         &matches);
        FlatAutomaton fa(app);
        auto layers = [](const FlatAutomaton &a) {
            return topologicalLayers(
                a.size(), [&a](StateId s) { return a.successors(s); });
        };
        const std::vector<uint32_t> layer = layers(fa);
        std::vector<GlobalStateId> remap;
        const MergedAutomaton merged =
            mergeEquivalentStates(fa, layer, &remap);
        const FlatAutomaton &m = *merged.automaton;
        const std::vector<uint32_t> merged_layer = layers(m);
        merging_cases += m.size() < fa.size() ? 1 : 0;

        ASSERT_EQ(merged.original.size(), m.size());
        for (GlobalStateId c = 0; c < m.size(); ++c) {
            EXPECT_EQ(remap[merged.original[c]], c);
            if (c > 0) {
                EXPECT_LT(merged.original[c - 1], merged.original[c]);
            }
        }
        for (GlobalStateId s = 0; s < fa.size(); ++s) {
            const GlobalStateId c = remap[s];
            EXPECT_LE(merged.original[c], s);
            EXPECT_EQ(merged_layer[c], layer[s]) << "trial " << trial;
            EXPECT_EQ(m.symbols(c), fa.symbols(s));
            EXPECT_EQ(m.start(c), fa.start(s));
            if (fa.reporting(s)) {
                EXPECT_EQ(merged.original[c], s);
            }
        }
    }
    EXPECT_GE(merging_cases, 30u);
}

} // namespace
} // namespace sparseap
