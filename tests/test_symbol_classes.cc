/**
 * @file
 * Tests for the byte→equivalence-class map and the compressed dense
 * accept table: class-map construction on hand-built automata, dedup
 * equivalence against brute force, and report equality of the sparse
 * and compressed-dense execution paths on every registered workload.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/engine.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

ReportList
sortedReports(Engine &engine, std::span<const uint8_t> input)
{
    ReportList r = engine.run(input).reports;
    std::sort(r.begin(), r.end());
    return r;
}

/** One single-state NFA per symbol set. */
Application
appOf(const std::vector<SymbolSet> &sets)
{
    Application app("classes", "CL");
    for (const SymbolSet &set : sets) {
        Nfa nfa("n");
        nfa.addState(set, StartKind::AllInput, true);
        nfa.finalize();
        app.addNfa(std::move(nfa));
    }
    return app;
}

/**
 * Two bytes must share a class iff every state treats them identically —
 * checked exhaustively over all 256×256 byte pairs.
 */
void
expectClassesPartitionColumns(const FlatAutomaton &fa)
{
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = a + 1; b < 256; ++b) {
            bool same_column = true;
            for (GlobalStateId s = 0; s < fa.size(); ++s) {
                if (fa.symbols(s).test(static_cast<uint8_t>(a)) !=
                    fa.symbols(s).test(static_cast<uint8_t>(b))) {
                    same_column = false;
                    break;
                }
            }
            EXPECT_EQ(fa.symbolClass(static_cast<uint8_t>(a)) ==
                          fa.symbolClass(static_cast<uint8_t>(b)),
                      same_column)
                << "bytes " << a << " and " << b;
        }
    }
}

/** Sets {a,b} and {b,c}: 'a', 'b', 'c' split three ways, rest pool. */
TEST(SymbolClasses, IdenticalColumnsCoalesce)
{
    SymbolSet ab = SymbolSet::single('a');
    ab.set('b');
    SymbolSet bc = SymbolSet::single('b');
    bc.set('c');
    FlatAutomaton fa(appOf({ab, bc}));

    // Membership vectors: a->{10}, b->{11}, c->{01}, other->{00}.
    EXPECT_EQ(fa.symbolClassCount(), 4u);
    std::set<uint8_t> distinct{fa.symbolClass('a'), fa.symbolClass('b'),
                               fa.symbolClass('c'), fa.symbolClass('x')};
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(fa.symbolClass('x'), fa.symbolClass(0));
    EXPECT_EQ(fa.symbolClass('x'), fa.symbolClass(255));
    expectClassesPartitionColumns(fa);

    // Representatives are each class's smallest member byte.
    for (size_t c = 0; c < fa.symbolClassCount(); ++c) {
        const uint8_t rep = fa.classRepresentative(c);
        EXPECT_EQ(fa.symbolClass(rep), c);
        for (unsigned b = 0; b < rep; ++b)
            EXPECT_NE(fa.symbolClass(static_cast<uint8_t>(b)), c);
    }
}

/** Universal symbol sets never split the alphabet. */
TEST(SymbolClasses, UniversalSetsYieldOneClass)
{
    FlatAutomaton fa(appOf({SymbolSet::all(), SymbolSet::all()}));
    EXPECT_EQ(fa.symbolClassCount(), 1u);
    for (unsigned b = 0; b < 256; ++b)
        EXPECT_EQ(fa.symbolClass(static_cast<uint8_t>(b)), 0u);
    const FlatAutomaton::DenseView &dv = fa.denseView();
    EXPECT_EQ(dv.classes, 1u);
    EXPECT_LT(dv.acceptBytes(), dv.rawAcceptBytes());
}

/**
 * Eight states where state i accepts exactly the bytes with bit i set:
 * every byte column is distinct, so compression must degrade gracefully
 * to the full 256-class identity map.
 */
TEST(SymbolClasses, FullyDistinctColumnsStayUncompressed)
{
    std::vector<SymbolSet> sets(8);
    for (unsigned i = 0; i < 8; ++i)
        for (unsigned b = 0; b < 256; ++b)
            if (b & (1u << i))
                sets[i].set(static_cast<uint8_t>(b));
    FlatAutomaton fa(appOf(sets));

    EXPECT_EQ(fa.symbolClassCount(), 256u);
    // Deterministic first-occurrence numbering makes the map identity.
    for (unsigned b = 0; b < 256; ++b) {
        EXPECT_EQ(fa.symbolClass(static_cast<uint8_t>(b)), b);
        EXPECT_EQ(fa.classRepresentative(b), b);
    }
    EXPECT_EQ(fa.denseView().classes, 256u);
}

/** Class map and accept table agree with symbols() on random automata. */
TEST(SymbolClasses, PropertyClassMapMatchesColumns)
{
    Rng rng(20181020);
    for (int trial = 0; trial < 20; ++trial) {
        testing::RandomNfaParams params;
        params.alphabetSize = 64;
        params.universalProb = trial % 4 == 0 ? 0.3 : 0.05;
        Application app = testing::randomApplication(rng, 4, params);
        FlatAutomaton fa(app);
        expectClassesPartitionColumns(fa);

        const FlatAutomaton::DenseView &dv = fa.denseView();
        EXPECT_EQ(dv.classes, fa.symbolClassCount());
        for (unsigned b = 0; b < 256; ++b) {
            const uint64_t *row = dv.acceptRow(static_cast<uint8_t>(b));
            for (GlobalStateId s = 0; s < fa.size(); ++s) {
                EXPECT_EQ(testWordBit(row, s),
                          fa.symbols(s).test(static_cast<uint8_t>(b)))
                    << "byte " << b << " state " << s;
            }
        }
    }
}

/** The deduped start table equals a per-byte brute-force scan. */
TEST(SymbolClasses, StartTableDedupMatchesBruteForce)
{
    Rng rng(99);
    testing::RandomNfaParams params;
    params.extraStartProb = 0.5;
    params.alphabetSize = 48;
    Application app = testing::randomApplication(rng, 6, params);
    FlatAutomaton fa(app);

    for (unsigned b = 0; b < 256; ++b) {
        std::vector<GlobalStateId> want;
        for (GlobalStateId s : fa.allInputStarts())
            if (fa.symbols(s).test(static_cast<uint8_t>(b)))
                want.push_back(s);
        const auto got = fa.allInputStartsFor(static_cast<uint8_t>(b));
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "byte " << b;
    }
}

/**
 * Sparse and class-compressed dense emit identical report lists on every
 * registered workload — the compressed accept table must be a pure
 * layout change — and the compressed table is never larger than the
 * uncompressed 256-row one.
 */
TEST(SymbolClasses, PropertyCompressedDenseMatchesSparseOnAllWorkloads)
{
    Rng input_rng(20180621);
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1536;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);

        FlatAutomaton fa(w.app);
        const FlatAutomaton::DenseView &dv = fa.denseView();
        EXPECT_EQ(dv.classes, fa.symbolClassCount()) << entry.abbr;
        // acceptBytes() counts the 256-byte class map, rawAcceptBytes()
        // has none: a fully split alphabet ties once that is allowed for.
        EXPECT_LE(dv.acceptBytes(), dv.rawAcceptBytes() + sizeof(dv.classOf))
            << entry.abbr;

        Engine sparse(fa, EngineMode::Sparse);
        Engine dense(fa, EngineMode::Dense);
        const ReportList want = sortedReports(sparse, input);
        EXPECT_EQ(sortedReports(dense, input), want) << entry.abbr;
    }
}

} // namespace
} // namespace sparseap
