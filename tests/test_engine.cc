/** @file Tests for the functional NFA engine (the VASim substrate). */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"

namespace sparseap {
namespace {

std::span<const uint8_t>
bytes(const std::string &s)
{
    return {reinterpret_cast<const uint8_t *>(s.data()), s.size()};
}

Application
paperExample()
{
    // Figure 2 of the paper: a((bc)|(cd)+)f
    Application app("fig2", "F2");
    app.addNfa(compileRegex("a((bc)|(cd)+)f", "fig2"));
    return app;
}

TEST(Engine, PaperFigure2Example)
{
    Application app = paperExample();
    FlatAutomaton fa(app);
    Engine engine(fa);

    // "abcf" matches: report at the final 'f' (position 3).
    SimResult r = engine.run(bytes("abcf"));
    ASSERT_EQ(r.reports.size(), 1u);
    EXPECT_EQ(r.reports[0].position, 3u);

    // "abdf" does not match.
    EXPECT_TRUE(engine.run(bytes("abdf")).reports.empty());

    // "acdcdf" matches (two rounds of (cd)+).
    EXPECT_EQ(engine.run(bytes("acdcdf")).reports.size(), 1u);
}

TEST(Engine, EmptyInput)
{
    Application app = paperExample();
    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run({});
    EXPECT_TRUE(r.reports.empty());
    EXPECT_EQ(r.cycles, 0u);
}

TEST(Engine, UnanchoredMatchesEverywhere)
{
    Application app("a", "A");
    app.addNfa(compileRegex("ab", "ab"));
    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("xabxxabab"));
    ASSERT_EQ(r.reports.size(), 3u);
    EXPECT_EQ(r.reports[0].position, 2u);
    EXPECT_EQ(r.reports[1].position, 6u);
    EXPECT_EQ(r.reports[2].position, 8u);
}

TEST(Engine, StartOfDataAnchoring)
{
    Application app("a", "A");
    app.addNfa(compileRegex("^ab", "anchored"));
    FlatAutomaton fa(app);
    Engine engine(fa);
    EXPECT_EQ(engine.run(bytes("abab")).reports.size(), 1u);
    EXPECT_TRUE(engine.run(bytes("xab")).reports.empty());
}

TEST(Engine, SelfLoopStaysEnabled)
{
    // a.*b reports on every 'b' after the first 'a'.
    Application app("a", "A");
    app.addNfa(compileRegex("a.*b", "gap"));
    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("xaxxbxbxb"));
    EXPECT_EQ(r.reports.size(), 3u);
}

TEST(Engine, ReusableAcrossRuns)
{
    Application app = paperExample();
    FlatAutomaton fa(app);
    Engine engine(fa);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(engine.run(bytes("abcf")).reports.size(), 1u);
        EXPECT_TRUE(engine.run(bytes("zzzz")).reports.empty());
    }
}

TEST(Engine, MultiNfaGlobalIds)
{
    Application app("a", "A");
    app.addNfa(compileRegex("aa", "first"));
    app.addNfa(compileRegex("bb", "second"));
    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("aabb"));
    ASSERT_EQ(r.reports.size(), 2u);
    EXPECT_EQ(app.resolve(r.reports[0].state).nfa, 0u);
    EXPECT_EQ(app.resolve(r.reports[1].state).nfa, 1u);
}

/**
 * Property: the engine matches the naive independent simulator on random
 * automata and random inputs — the core substrate-correctness check.
 */
/**
 * ReportList buffers from ReportAllocator::kMappedBytes up are mapped
 * rather than taken from the heap. Lists that grow, copy, move, shrink
 * and compare across that boundary keep every value.
 */
TEST(Engine, ReportListsKeepValuesAcrossTheMappedBoundary)
{
    const size_t boundary =
        ReportAllocator<Report>::kMappedBytes / sizeof(Report);
    auto value = [](size_t i) {
        return Report{i * 7 + 1, static_cast<GlobalStateId>(i ^ 0x5a5a)};
    };
    auto holdsValues = [&](const ReportList &list, size_t n) {
        if (list.size() != n)
            return false;
        for (size_t i = 0; i < n; ++i)
            if (!(list[i] == value(i)))
                return false;
        return true;
    };

    // Grow one report at a time from the heap into mapped buffers.
    ReportList grown;
    for (size_t i = 0; i < 3 * boundary; ++i)
        grown.push_back(value(i));
    EXPECT_TRUE(holdsValues(grown, 3 * boundary));
    EXPECT_GE(grown.capacity() * sizeof(Report),
              ReportAllocator<Report>::kMappedBytes);

    // Copies on both sides of the boundary, and equality across them.
    const ReportList small(grown.begin(), grown.begin() + boundary / 2);
    EXPECT_TRUE(holdsValues(small, boundary / 2));
    ReportList copy = grown;
    EXPECT_EQ(copy, grown);
    EXPECT_NE(copy, small);
    copy.resize(boundary / 2);
    copy.shrink_to_fit();
    EXPECT_EQ(copy, small);

    // Moves hand the mapped buffer over; the source is left empty.
    const Report *buffer = grown.data();
    ReportList moved = std::move(grown);
    EXPECT_EQ(moved.data(), buffer);
    EXPECT_TRUE(holdsValues(moved, 3 * boundary));
    ReportList assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(holdsValues(assigned, 3 * boundary));

    // Copy-assign a mapped list over a heap one and back.
    copy = assigned;
    EXPECT_TRUE(holdsValues(copy, 3 * boundary));
    copy = small;
    EXPECT_TRUE(holdsValues(copy, boundary / 2));
    ReportList reserved;
    reserved.reserve(boundary);
    reserved.insert(reserved.end(), assigned.begin(),
                    assigned.begin() + boundary);
    EXPECT_TRUE(holdsValues(reserved, boundary));
}

TEST(Engine, PropertyMatchesNaiveSimulator)
{
    Rng rng(88);
    for (int trial = 0; trial < 60; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.sodProb = trial % 3 == 0 ? 0.5 : 0.0;
        Application app = testing::randomApplication(
            rng, 1 + rng.index(5), params);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 200, params.alphabetSize);

        FlatAutomaton fa(app);
        Engine engine(fa);
        ReportList got = engine.run(input).reports;
        std::sort(got.begin(), got.end());
        ReportList want = testing::naiveSimulate(app, input);
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

/** Property: report positions are nondecreasing as emitted. */
TEST(Engine, PropertyReportsOrderedByPosition)
{
    Rng rng(89);
    for (int trial = 0; trial < 20; ++trial) {
        Application app = testing::randomApplication(rng, 3);
        std::vector<uint8_t> input = testing::randomInput(rng, 300, 32);
        FlatAutomaton fa(app);
        Engine engine(fa);
        ReportList got = engine.run(input).reports;
        for (size_t i = 1; i < got.size(); ++i)
            EXPECT_LE(got[i - 1].position, got[i].position);
    }
}

} // namespace
} // namespace sparseap
