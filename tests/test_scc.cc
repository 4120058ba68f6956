/** @file Tests for strongly-connected-component identification. */

#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/scc.h"
#include "support/random_nfa.h"

namespace sparseap {
namespace {

Nfa
fromEdges(size_t states, std::vector<std::pair<StateId, StateId>> edges)
{
    Nfa nfa("g");
    for (size_t i = 0; i < states; ++i)
        nfa.addState(SymbolSet::all(),
                     i == 0 ? StartKind::AllInput : StartKind::None);
    for (auto [u, v] : edges)
        nfa.addEdge(u, v);
    nfa.finalize();
    return nfa;
}

TEST(Scc, ChainIsAllSingletons)
{
    Nfa nfa = fromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
    SccResult scc = findSccs(nfa);
    EXPECT_EQ(scc.count, 4u);
    EXPECT_EQ(scc.largestSize(), 1u);
}

TEST(Scc, SimpleCycle)
{
    Nfa nfa = fromEdges(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
    SccResult scc = findSccs(nfa);
    EXPECT_EQ(scc.count, 3u);
    EXPECT_EQ(scc.component[1], scc.component[2]);
    EXPECT_NE(scc.component[0], scc.component[1]);
    EXPECT_NE(scc.component[3], scc.component[1]);
    EXPECT_EQ(scc.largestSize(), 2u);
}

TEST(Scc, SelfLoopIsItsOwnScc)
{
    Nfa nfa = fromEdges(2, {{0, 0}, {0, 1}});
    SccResult scc = findSccs(nfa);
    EXPECT_EQ(scc.count, 2u);
    EXPECT_EQ(scc.largestSize(), 1u);
}

TEST(Scc, FullCycleIsOneComponent)
{
    Nfa nfa = fromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
    SccResult scc = findSccs(nfa);
    EXPECT_EQ(scc.count, 1u);
    EXPECT_EQ(scc.largestSize(), 5u);
}

TEST(Scc, TwoCyclesBridged)
{
    Nfa nfa = fromEdges(
        6, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 2}, {4, 5}});
    SccResult scc = findSccs(nfa);
    EXPECT_EQ(scc.count, 3u); // {0,1}, {2,3,4}, {5}
    EXPECT_EQ(scc.component[0], scc.component[1]);
    EXPECT_EQ(scc.component[2], scc.component[3]);
    EXPECT_EQ(scc.component[3], scc.component[4]);
    EXPECT_NE(scc.component[0], scc.component[2]);
}

TEST(Scc, MembersPartitionTheStates)
{
    Rng rng(55);
    for (int trial = 0; trial < 40; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.4;
        Nfa nfa = testing::randomNfa(rng, params);
        SccResult scc = findSccs(nfa);

        size_t total = 0;
        std::vector<bool> seen(nfa.size(), false);
        for (uint32_t c = 0; c < scc.count; ++c) {
            for (StateId s : scc.members[c]) {
                EXPECT_FALSE(seen[s]);
                seen[s] = true;
                EXPECT_EQ(scc.component[s], c);
                ++total;
            }
        }
        EXPECT_EQ(total, nfa.size());
    }
}

/**
 * Property: the condensation is acyclic — every edge between two
 * components leads to the lower component id (labelSccs' order, which
 * topologicalLayers walks in place of a condensation graph), and
 * labelSccs numbers the components exactly as findSccs does.
 */
TEST(Scc, PropertyCondensationIsDag)
{
    Rng rng(56);
    for (int trial = 0; trial < 40; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.5;
        params.maxStates = 40;
        Nfa nfa = testing::randomNfa(rng, params);
        SccResult scc = findSccs(nfa);
        std::vector<uint32_t> component;
        ASSERT_EQ(labelSccs(nfa.size(), nfaSuccessors(nfa), &component),
                  scc.count);
        EXPECT_EQ(component, scc.component);

        for (StateId u = 0; u < nfa.size(); ++u) {
            for (StateId v : nfa.state(u).successors) {
                if (scc.component[u] != scc.component[v]) {
                    EXPECT_LT(scc.component[v], scc.component[u])
                        << "condensation edge " << u << " -> " << v
                        << " climbs";
                }
            }
        }
    }
}

/** Property: mutual reachability within an SCC (checked on small NFAs). */
TEST(Scc, PropertyMutualReachability)
{
    Rng rng(57);
    for (int trial = 0; trial < 20; ++trial) {
        testing::RandomNfaParams params;
        params.minStates = 3;
        params.maxStates = 14;
        params.backEdgeProb = 0.5;
        Nfa nfa = testing::randomNfa(rng, params);
        const size_t n = nfa.size();

        // Floyd-Warshall reachability.
        std::vector<std::vector<bool>> reach(n,
                                             std::vector<bool>(n, false));
        for (StateId u = 0; u < n; ++u)
            for (StateId v : nfa.state(u).successors)
                reach[u][v] = true;
        for (size_t k = 0; k < n; ++k)
            for (size_t i = 0; i < n; ++i)
                for (size_t j = 0; j < n; ++j)
                    if (reach[i][k] && reach[k][j])
                        reach[i][j] = reach[i][j] || true;
        // (two passes make the closure exact for this simple loop order)
        for (size_t k = 0; k < n; ++k)
            for (size_t i = 0; i < n; ++i)
                for (size_t j = 0; j < n; ++j)
                    if (reach[i][k] && reach[k][j])
                        reach[i][j] = true;

        SccResult scc = findSccs(nfa);
        for (StateId u = 0; u < n; ++u) {
            for (StateId v = 0; v < n; ++v) {
                if (u == v)
                    continue;
                const bool same = scc.component[u] == scc.component[v];
                const bool mutual = reach[u][v] && reach[v][u];
                EXPECT_EQ(same, mutual)
                    << "states " << u << "," << v << " trial " << trial;
            }
        }
    }
}

} // namespace
} // namespace sparseap
