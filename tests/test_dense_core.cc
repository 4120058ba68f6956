/**
 * @file
 * Property tests pitting the bit-parallel dense core against the sparse
 * core (and the naive oracle): both engine cores must emit identical
 * (position, state) report multisets on random automata and on every
 * registered workload, and auto's core decision must be invisible in the
 * output.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/word_vector.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "support/naive_sim.h"
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

/** Dense == sparse == naive oracle on random automata. */
TEST(DenseCore, PropertyMatchesSparseAndNaiveOnRandomAutomata)
{
    Rng rng(427);
    for (int trial = 0; trial < 60; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.sodProb = trial % 3 == 0 ? 0.5 : 0.0;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.12;
        Application app = testing::randomApplication(
            rng, 1 + rng.index(5), params);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 250, params.alphabetSize);

        FlatAutomaton fa(app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine dense(fa, EngineMode::Dense);
        const ReportList want_sparse = sortedReports(sparse, input);
        const ReportList got_dense = sortedReports(dense, input);
        EXPECT_EQ(got_dense, want_sparse) << "trial " << trial;
        EXPECT_EQ(got_dense, testing::naiveSimulate(app, input))
            << "trial " << trial;
    }
}

/** Auto mode (decided dense or sparse) == sparse. */
TEST(DenseCore, PropertyAutoModeMatchesSparse)
{
    Rng rng(428);
    for (int trial = 0; trial < 20; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.universalProb = 0.3; // keep the live set dense
        params.extraStartProb = 0.5;
        // Enough NFAs to clear the auto heuristic's minimum size.
        Application app = testing::randomApplication(rng, 30, params);
        ASSERT_GE(app.totalStates(), Engine::kMinDenseStates);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 400, params.alphabetSize);

        FlatAutomaton fa(app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine aut(fa, EngineMode::Auto);
        EXPECT_EQ(sortedReports(aut, input), sortedReports(sparse, input))
            << "trial " << trial;
    }
}

/** The heuristic actually fires on a clearly dense automaton. */
TEST(DenseCore, AutoHandsOverOnDenseLiveSet)
{
    // Hundreds of always-enabled starts: the live set is half the
    // automaton from cycle 0, far above the dense threshold.
    Application app("dense", "D");
    for (int i = 0; i < 300; ++i)
        app.addNfa(compileRegex("ab", "p" + std::to_string(i)));
    FlatAutomaton fa(app);
    ASSERT_GE(fa.size(), Engine::kMinDenseStates);

    std::vector<uint8_t> input(1000, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';

    Engine aut(fa, EngineMode::Auto);
    SimResult auto_run = aut.run(input);
    EXPECT_TRUE(auto_run.usedDenseCore);

    Engine sparse(fa, EngineMode::Sparse);
    SimResult sparse_run = sparse.run(input);
    EXPECT_FALSE(sparse_run.usedDenseCore);

    std::sort(auto_run.reports.begin(), auto_run.reports.end());
    std::sort(sparse_run.reports.begin(), sparse_run.reports.end());
    EXPECT_EQ(auto_run.reports, sparse_run.reports);
}

/** ...and stays sparse on a clearly sparse automaton. */
TEST(DenseCore, AutoStaysSparseOnSparseLiveSet)
{
    Application app("sparse", "S");
    for (int i = 0; i < 300; ++i) {
        app.addNfa(compileRegex("q" + std::to_string(i % 10) + "xyzw",
                                "p" + std::to_string(i)));
    }
    FlatAutomaton fa(app);
    std::vector<uint8_t> input(1000, 'z'); // nothing past the starts
    Engine aut(fa, EngineMode::Auto);
    EXPECT_FALSE(aut.run(input).usedDenseCore);
}

/**
 * Dense == sparse on every registered workload (small scale/input). The
 * synthesized bytes alone leave grids such as HM and LV silent, so the
 * first NFA's matching bytes are planted (at offset 0 when that NFA is
 * anchored) and every workload must report.
 */
TEST(DenseCore, PropertyMatchesSparseOnAllRegisteredWorkloads)
{
    Rng input_rng(20180620);
    for (const auto &entry : appCatalog()) {
        // 5% scale keeps generation fast while covering every generator.
        Workload w = generateWorkload(entry.abbr, 7, 5);
        const Nfa &first = w.app.nfa(0);
        const std::vector<uint8_t> match = testing::matchingBytes(first);
        ASSERT_FALSE(match.empty()) << entry.abbr;
        // Room for two plants of CAV4k's long signatures.
        size_t bytes = std::max<size_t>(1536, 2 * match.size() + 300);
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);

        const auto starts = first.startStates();
        const bool anchored =
            std::none_of(starts.begin(), starts.end(), [&](StateId s) {
                return first.state(s).start == StartKind::AllInput;
            });
        for (size_t at : anchored ? std::vector<size_t>{0}
                                  : std::vector<size_t>{100, bytes / 2}) {
            ASSERT_LE(at + match.size(), input.size()) << entry.abbr;
            std::copy(match.begin(), match.end(), input.begin() + at);
        }

        FlatAutomaton fa(w.app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine dense(fa, EngineMode::Dense);
        Engine aut(fa, EngineMode::Auto);
        const ReportList want = sortedReports(sparse, input);
        std::printf("%s: %zu reports\n", entry.abbr.c_str(), want.size());
        EXPECT_GT(want.size(), 0u) << entry.abbr;
        EXPECT_EQ(sortedReports(dense, input), want) << entry.abbr;
        EXPECT_EQ(sortedReports(aut, input), want) << entry.abbr;
    }
}

/**
 * The shift rows plus the CSR of the fan-out states reproduce every
 * state's successor set exactly, on every registered workload: a state
 * off the fan-out row has exactly its shift-row successors, and a
 * fan-out state's shift-row successors are a subset of its CSR. The
 * grid automata keep at least 99% of their edges on shift rows.
 */
TEST(DenseView, ShiftRowsReproduceEverySuccessorSet)
{
    using DenseView = FlatAutomaton::DenseView;
    const std::vector<std::string> grids = {"HM", "HM500", "Fermi", "SPM"};
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        FlatAutomaton fa(w.app);
        const DenseView &dv = fa.denseView();
        ASSERT_LE(dv.shifts.size(), DenseView::kMaxShifts) << entry.abbr;
        ASSERT_EQ(dv.shiftRows.size(), dv.shifts.size() * dv.stride);
        ASSERT_EQ(dv.fanout.size(), dv.words);

        uint64_t edges = 0;
        uint64_t on_rows = 0;
        size_t fanout_states = 0;
        std::vector<GlobalStateId> csr;
        std::vector<GlobalStateId> shifted;
        for (GlobalStateId s = 0; s < fa.size(); ++s) {
            csr.clear();
            for (uint32_t k = dv.succBegin[s]; k < dv.succBegin[s + 1]; ++k)
                forEachSetBit(std::span(&dv.succWordMask[k], 1),
                              [&](size_t b) {
                                  csr.push_back(static_cast<GlobalStateId>(
                                      dv.succWordIdx[k] * 64 + b));
                              });
            shifted.clear();
            for (size_t r = 0; r < dv.shifts.size(); ++r) {
                const GlobalStateId t = s + dv.shifts[r];
                if (t < fa.size() &&
                    testWordBit(dv.shiftRows.data() + r * dv.stride, t))
                    shifted.push_back(t);
            }
            std::sort(csr.begin(), csr.end());
            std::sort(shifted.begin(), shifted.end());
            edges += csr.size();
            on_rows += shifted.size();

            const bool fan = testWordBit(dv.fanout.data(), s);
            fanout_states += fan;
            ASSERT_TRUE(std::includes(csr.begin(), csr.end(),
                                      shifted.begin(), shifted.end()))
                << entry.abbr << " state " << s;
            ASSERT_EQ(fan, shifted != csr) << entry.abbr << " state " << s;
        }

        std::string offsets;
        for (uint8_t d : dv.shifts)
            offsets += " " + std::to_string(d);
        const double coverage =
            edges == 0 ? 1.0 : static_cast<double>(on_rows) / edges;
        std::printf("%s: %zu states, offsets {%s }, %.1f%% of %llu edges "
                    "on shift rows, %zu fan-out states\n",
                    entry.abbr.c_str(), fa.size(), offsets.c_str(),
                    100.0 * coverage, static_cast<unsigned long long>(edges),
                    fanout_states);
        if (std::find(grids.begin(), grids.end(), entry.abbr) !=
            grids.end()) {
            EXPECT_GE(coverage, 0.99) << entry.abbr;
        }
    }
}

/** Dense handles empty input and empty automata without tripping. */
TEST(DenseCore, EdgeCases)
{
    Application app("a", "A");
    app.addNfa(compileRegex("ab", "p"));
    FlatAutomaton fa(app);
    Engine dense(fa, EngineMode::Dense);
    EXPECT_TRUE(dense.run({}).reports.empty());

    const std::string s = "abxab";
    const std::span<const uint8_t> input(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
    EXPECT_EQ(dense.run(input).reports.size(), 2u);
    // Reusable across runs, like the sparse engine.
    EXPECT_EQ(dense.run(input).reports.size(), 2u);
}

} // namespace
} // namespace sparseap
