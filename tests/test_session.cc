/**
 * @file
 * EngineSession tests: the chunked-execution invariant — restart();
 * feed(c0); ...; feed(ck) produces a report stream byte-identical to one
 * Engine::run over the concatenation — on every registered workload,
 * every engine mode (auto on a decided automaton), chunk sizes from 1
 * byte to whole-input, with the input skip on and off; plus
 * suspend()/resume() round trips (including cross-session migration and
 * >4 GiB stream offsets), a randomized chunk-boundary differential over
 * random automata, and auto's one core decision per automaton against
 * the naive oracle.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "sim/exec_core.h"
#include "sim/session.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

/** Whole-input reference through Engine::run. */
SimResult
wholeRun(const FlatAutomaton &fa, EngineMode mode, bool skip,
         std::span<const uint8_t> input)
{
    Engine engine(fa, mode);
    engine.setInputSkip(skip);
    return engine.run(input);
}

/**
 * Decide @p fa's core from @p input, as a first whole-input run would:
 * auto runs on it are then byte-identical to Engine::run.
 */
void
decide(const FlatAutomaton &fa, std::span<const uint8_t> input)
{
    fa.decideCore(input, ExecCore::distinctBytes(input));
}

/** Session config that matches Engine::run's resolution byte-for-byte:
 *  same mode, same skip, and the input's exact distinct-byte alphabet
 *  (the sparse core's universality — and so its within-position report
 *  order — is relative to the declared alphabet). */
SessionConfig
engineParityConfig(EngineMode mode, bool skip,
                   std::span<const uint8_t> input)
{
    SessionConfig config;
    config.mode = mode;
    config.inputSkip = skip;
    config.alphabet = ExecCore::distinctBytes(input);
    return config;
}

/** Feed @p input through a fresh session in @p chunk-byte pieces. */
ReportList
chunkedReports(const FlatAutomaton &fa, const SessionConfig &config,
               std::span<const uint8_t> input, size_t chunk)
{
    EngineSession session(fa, config);
    session.restart();
    size_t i = 0;
    while (i < input.size()) {
        const size_t take = std::min(chunk, input.size() - i);
        session.feed(input.subspan(i, take));
        i += take;
    }
    EXPECT_EQ(session.offset(), input.size());
    EXPECT_EQ(session.stats().cycles, input.size());
    return session.takeReports();
}

constexpr EngineMode kAllModes[] = {EngineMode::Sparse, EngineMode::Dense,
                                    EngineMode::Dfa, EngineMode::Auto};

/**
 * The headline invariant: every registered workload, every engine mode,
 * chunk sizes {1, 7, 4096, whole}, skip on and off — the chunked report
 * stream is byte-identical (same records, same order) to Engine::run,
 * and the session resolves to the same core the engine did.
 */
TEST(Session, ChunkedMatchesWholeEveryWorkloadModeChunkSkip)
{
    Rng input_rng(20180621);
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);
        decide(fa, input);

        for (EngineMode mode : kAllModes) {
            for (bool skip : {false, true}) {
                const SimResult want = wholeRun(fa, mode, skip, input);
                const SessionConfig config =
                    engineParityConfig(mode, skip, input);

                const size_t chunks[] = {1, 7, 4096, input.size()};
                for (size_t chunk : chunks) {
                    SCOPED_TRACE(entry.abbr + std::string(" mode ") +
                                 engineModeName(mode) + " chunk " +
                                 std::to_string(chunk) +
                                 (skip ? " skip" : " noskip"));
                    EngineSession session(fa, config);
                    session.restart();
                    size_t i = 0;
                    while (i < input.size()) {
                        const size_t take =
                            std::min(chunk, input.size() - i);
                        session.feed(std::span(input).subspan(i, take));
                        i += take;
                    }
                    EXPECT_EQ(session.reports(), want.reports);
                    const SessionStats &st = session.stats();
                    EXPECT_EQ(st.cycles, input.size());
                    EXPECT_EQ(st.chunks,
                              (input.size() + chunk - 1) / chunk);
                    // The chunked run must land on the same core and
                    // make the same auto decision as the whole run.
                    EXPECT_EQ(st.usedDenseCore, want.usedDenseCore);
                    EXPECT_EQ(st.usedDfa, want.usedDfa);
                }
            }
        }
    }
}

/**
 * Without a declared alphabet the session runs the safe superset (every
 * byte may still arrive). Latching decisions can then differ, which may
 * reorder reports within a position — but the report *multiset* is the
 * same stream of matches.
 */
TEST(Session, DefaultAlphabetPreservesReportContent)
{
    Rng input_rng(20180621);
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        ReportList want = wholeRun(fa, EngineMode::Auto, true,
                                   input).reports;
        std::sort(want.begin(), want.end());

        SessionConfig config; // alphabet = Bitset256::all()
        config.mode = EngineMode::Auto;
        ReportList got = chunkedReports(fa, config, input, 37);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << entry.abbr;
    }
}

/**
 * suspend()/resume() round trip, including migration to a *different*
 * session object: split the stream at assorted boundaries (first byte,
 * the calibration length, mid-stream, last byte), park the stream,
 * resume it elsewhere, and require the concatenated report stream to be
 * byte-identical to the unsuspended run — in every mode.
 */
TEST(Session, SuspendResumeMigratesAcrossSessions)
{
    Rng input_rng(20180621);
    const char *abbrs[] = {"Bro217", "HM", "Snort"};
    for (const char *abbr : abbrs) {
        Workload w = generateWorkload(abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);
        decide(fa, input);

        for (EngineMode mode : kAllModes) {
            const SimResult want = wholeRun(fa, mode, true, input);
            const SessionConfig config =
                engineParityConfig(mode, true, input);

            const size_t splits[] = {0, 1, Engine::kProbeCycles,
                                     input.size() / 2,
                                     input.size() - 1, input.size()};
            for (size_t split : splits) {
                SCOPED_TRACE(std::string(abbr) + " mode " +
                             engineModeName(mode) + " split " +
                             std::to_string(split));
                EngineSession first(fa, config);
                first.restart();
                first.feed(std::span(input).first(split));
                ReportList got = first.takeReports();
                const EngineSession::Snapshot snap = first.suspend();
                EXPECT_EQ(snap.offset, split);

                EngineSession second(fa, config);
                second.resume(snap);
                EXPECT_EQ(second.offset(), split);
                second.feed(std::span(input).subspan(split));
                const ReportList tail = second.takeReports();
                got.insert(got.end(), tail.begin(), tail.end());
                EXPECT_EQ(got, want.reports);
                EXPECT_EQ(second.stats().usedDenseCore,
                          want.usedDenseCore);
                EXPECT_EQ(second.stats().usedDfa, want.usedDfa);
            }
        }
    }
}

/**
 * Report::position is a 64-bit global stream offset: resuming a parked
 * stream beyond 4 GiB keeps reporting exact positions (the satellite
 * that widened Report::position from uint32_t).
 */
TEST(Session, ResumedStreamReportsSixtyFourBitPositions)
{
    // A guaranteed-reporting automaton: "ab" matches every other byte
    // of an a/b-alternating input, and one NFA determinizes trivially.
    Application app("wide", "W");
    app.addNfa(compileRegex("ab", "p"));
    FlatAutomaton fa(app);
    std::vector<uint8_t> input(512, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';

    for (EngineMode mode :
         {EngineMode::Sparse, EngineMode::Dense, EngineMode::Dfa}) {
        const SessionConfig config =
            engineParityConfig(mode, false, input);

        EngineSession zero(fa, config);
        zero.restart();
        zero.feed(input);
        const ReportList base = zero.takeReports();
        ASSERT_FALSE(base.empty())
            << "test needs a reporting workload";

        // Park a fresh stream and pretend 8 GiB already went by: the
        // snapshot's offset is the only thing that moves.
        EngineSession fresh(fa, config);
        fresh.restart();
        EngineSession::Snapshot snap = fresh.suspend();
        const uint64_t kFar = 1ull << 33;
        snap.offset = kFar;
        snap.stats.cycles = kFar;

        EngineSession far(fa, config);
        far.resume(snap);
        far.feed(input);
        const ReportList &got = far.reports();
        ASSERT_EQ(got.size(), base.size()) << engineModeName(mode);
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].position, base[i].position + kFar);
            EXPECT_EQ(got[i].state, base[i].state);
        }
    }
}

/**
 * Random automata, random chunk partitions: chunked == whole, and the
 * sorted reports equal the naive simulator's (Engine::run takes the
 * same next-symbol lookahead and quiet steps as the chunked run, so it
 * is no oracle for them). The last 16 trials use small symbol sets over
 * a wider alphabet, few wildcards and few reporting states, with every
 * NFA's matchingBytes planted, so that the sparse core often has
 * nothing to do: their sparse and auto trials must take quiet steps
 * and report.
 */
TEST(Session, RandomizedChunkBoundaryDifferential)
{
    Rng rng(20260813);
    size_t quiet_trials = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const bool sparse_symbols = trial >= 24;
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.1;
        params.extraStartProb = 0.4;
        if (sparse_symbols) {
            params.maxSymbols = 3;
            params.alphabetSize = 48;
            params.universalProb = 0.05;
            params.reportProb = 0.1;
        }
        Application app = testing::randomApplication(
            rng, 2 + rng.index(12), params);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 500, params.alphabetSize);
        if (sparse_symbols) {
            std::vector<std::vector<uint8_t>> matches;
            for (const Nfa &nfa : app.nfas())
                matches.push_back(testing::matchingBytes(nfa));
            testing::plantMatches(app, matches, rng, &input);
        }
        FlatAutomaton fa(app);
        decide(fa, input);

        const EngineMode mode = kAllModes[trial % 4];
        const bool skip = trial % 3 == 0;
        const SimResult want = wholeRun(fa, mode, skip, input);
        const SessionConfig config =
            engineParityConfig(mode, skip, input);

        // A random chunk partition of the stream, suspending and
        // migrating the session at one random boundary along the way.
        EngineSession session(fa, config);
        session.restart();
        ReportList got;
        size_t i = 0;
        const size_t migrate_at = rng.index(input.size());
        bool migrated = false;
        std::unique_ptr<EngineSession> owner;
        EngineSession *live = &session;
        while (i < input.size()) {
            if (!migrated && i >= migrate_at) {
                const ReportList part = live->takeReports();
                got.insert(got.end(), part.begin(), part.end());
                owner = std::make_unique<EngineSession>(fa, config);
                owner->resume(live->suspend());
                live = owner.get();
                migrated = true;
            }
            const size_t take = std::min<size_t>(
                1 + rng.index(97), input.size() - i);
            live->feed(std::span(input).subspan(i, take));
            i += take;
        }
        const ReportList part = live->takeReports();
        got.insert(got.end(), part.begin(), part.end());
        EXPECT_EQ(got, want.reports) << "trial " << trial << " mode "
                                     << engineModeName(mode);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, testing::naiveSimulate(app, input))
            << "trial " << trial << " mode " << engineModeName(mode);
        quiet_trials +=
            live->stats().quietSteps > 0 && !got.empty() ? 1 : 0;
    }
    // The oracle covers the sparse core's quiet steps.
    std::printf("%zu of 40 trials took quiet steps and reported\n",
                quiet_trials);
    EXPECT_GE(quiet_trials, 4u);
}

/**
 * The decision measures unfiltered steps: on every registered workload,
 * an auto stream whose first chunk is exactly kProbeCycles bytes
 * decides its automaton with the work of a raw ExecCore stepped over
 * them without lookahead. A lookahead step enqueues fewer states, so a
 * calibration that took it would measure less and could decide sparse.
 * Automata below the size floor are never decided.
 */
TEST(Session, DecisionWorkIsMeasuredWithoutLookahead)
{
    Rng input_rng(20181020);
    size_t decided = 0;
    for (const auto &entry : appCatalog()) {
        SCOPED_TRACE(entry.abbr);
        Workload w = generateWorkload(entry.abbr, 7, 5);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, Engine::kProbeCycles, input_rng);
        ASSERT_EQ(input.size(), Engine::kProbeCycles);
        FlatAutomaton fa(w.app);
        const SessionConfig config =
            engineParityConfig(EngineMode::Auto, false, input);

        EngineSession session(fa, config);
        session.restart();
        session.feed(input);
        const std::optional<CoreDecision> d = fa.coreDecision();
        if (fa.size() < Engine::kMinDenseStates) {
            EXPECT_FALSE(d.has_value());
            EXPECT_EQ(session.resolvedMode(), EngineMode::Sparse);
            continue;
        }
        ASSERT_TRUE(d.has_value());
        ++decided;
        ExecCore core(fa);
        core.reset(config.alphabet, nullptr, /*install_starts=*/true);
        ReportList reports;
        uint64_t want = 0;
        for (size_t i = 0; i < input.size(); ++i) {
            core.step(input[i], i, &reports);
            want += core.lastStepWork();
        }
        EXPECT_GT(want, 0u);
        EXPECT_EQ(d->work, want);
        EXPECT_EQ(d->threshold, Engine::denseWorkThreshold(fa.size()));
        EXPECT_EQ(d->dense, d->work >= d->threshold);
        EXPECT_EQ(session.resolvedMode(),
                  d->dense ? EngineMode::Dense : EngineMode::Sparse);
    }
    EXPECT_GT(decided, 0u);
}

/** resolvedMode() reports the core actually running. */
TEST(Session, ResolvedModeTracksExecution)
{
    Rng input_rng(20180621);
    Workload w = generateWorkload("Bro217", 7, 5);
    size_t bytes = 512;
    if (w.inputBytesCap > 0)
        bytes = std::min(bytes, w.inputBytesCap);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, bytes, input_rng);
    FlatAutomaton fa(w.app);

    for (EngineMode mode : kAllModes) {
        SessionConfig config = engineParityConfig(mode, true, input);
        EngineSession session(fa, config);
        session.restart();
        session.feed(input);
        const EngineMode resolved = session.resolvedMode();
        const SessionStats &st = session.stats();
        switch (resolved) {
        case EngineMode::Sparse:
            EXPECT_FALSE(st.usedDenseCore);
            EXPECT_FALSE(st.usedDfa);
            break;
        case EngineMode::Dense:
            EXPECT_TRUE(st.usedDenseCore);
            break;
        case EngineMode::Dfa:
            EXPECT_TRUE(st.usedDfa);
            break;
        case EngineMode::Split:
            EXPECT_TRUE(st.usedSplit);
            break;
        case EngineMode::Auto:
            ADD_FAILURE() << "resolvedMode may never stay Auto after "
                             "a restart";
            break;
        }
        // Engine::resolvedMode surfaces the same resolution.
        Engine engine(fa, mode);
        engine.setInputSkip(true);
        engine.run(input);
        EXPECT_EQ(engine.resolvedMode(), resolved)
            << engineModeName(mode);
    }
}

/** @p abbr at 5% scale with a 4 KiB input (seed 7, like the rest). */
struct SmallWorkload
{
    Workload w;
    std::vector<uint8_t> input;

    explicit SmallWorkload(const char *abbr)
        : w(generateWorkload(abbr, 7, 5))
    {
        Rng input_rng(20180621);
        size_t bytes = 4096;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        input = synthesizeInput(w.input, bytes, input_rng);
    }
};

ReportList
sorted(ReportList reports)
{
    std::sort(reports.begin(), reports.end());
    return reports;
}

/**
 * Auto runs an already-built DFA from cycle 0: on Bro217 (below
 * kMinDenseStates, so it is never decided) and Brill (which decides
 * sparse), a DFA built before the stream starts is what the stream
 * runs — and its reports are the pinned sparse core's.
 */
TEST(Session, AutoRunsBuiltDfaFromFirstChunk)
{
    for (const char *abbr : {"Bro217", "Brill"}) {
        SCOPED_TRACE(abbr);
        const SmallWorkload sw(abbr);
        FlatAutomaton fa(sw.w.app);
        ASSERT_NE(fa.ensureHotDfa(), nullptr)
            << abbr << "@5% must determinize for this test";

        SessionConfig config; // default alphabet, like a served stream
        config.mode = EngineMode::Auto;
        EngineSession session(fa, config);
        session.restart();
        EXPECT_EQ(session.resolvedMode(), EngineMode::Dfa);
        session.feed(std::span(sw.input).first(1024));
        EXPECT_TRUE(session.dfaPhase());
        EXPECT_TRUE(session.stats().usedDfa);
        session.feed(std::span(sw.input).subspan(1024));
        EXPECT_FALSE(session.stats().usedDenseCore);

        const SimResult pinned =
            wholeRun(fa, EngineMode::Sparse, true, sw.input);
        ASSERT_FALSE(pinned.reports.empty())
            << "test needs a reporting input";
        EXPECT_EQ(sorted(session.takeReports()), sorted(pinned.reports));

        // Engine::run follows the same automaton-level rule.
        const SimResult whole =
            wholeRun(fa, EngineMode::Auto, true, sw.input);
        EXPECT_TRUE(whole.usedDfa);
        EXPECT_EQ(sorted(whole.reports), sorted(pinned.reports));
    }
}

/** Parked anywhere along the stream, a DFA-phase auto stream resumes
 *  on a fresh session and continues byte-identically on the table; a
 *  stream parked at offset 0 before the DFA existed resumes on it. */
TEST(Session, AutoDfaStreamSuspendResumes)
{
    for (const char *abbr : {"Bro217", "Brill"}) {
        const SmallWorkload sw(abbr);
        FlatAutomaton fa(sw.w.app);
        SessionConfig config;
        config.mode = EngineMode::Auto;
        EngineSession early(fa, config);
        early.restart();
        ASSERT_FALSE(early.dfaPhase());
        const EngineSession::Snapshot parked = early.suspend();
        ASSERT_NE(fa.ensureHotDfa(), nullptr);
        const std::span<const uint8_t> input(sw.input);

        EngineSession whole(fa, config);
        whole.restart();
        whole.feed(input);
        const ReportList want = whole.takeReports();

        EngineSession late(fa, config);
        late.resume(parked);
        EXPECT_TRUE(late.dfaPhase()) << abbr;
        late.feed(input);
        EXPECT_EQ(late.takeReports(), want) << abbr;

        for (size_t split : {size_t{0}, Engine::kProbeCycles,
                             input.size() / 2, input.size()}) {
            SCOPED_TRACE(std::string(abbr) + " split " +
                         std::to_string(split));
            EngineSession first(fa, config);
            first.restart();
            first.feed(input.first(split));
            ReportList got = first.takeReports();

            EngineSession second(fa, config);
            second.resume(first.suspend());
            EXPECT_TRUE(second.dfaPhase());
            second.feed(input.subspan(split));
            const ReportList tail = second.takeReports();
            got.insert(got.end(), tail.begin(), tail.end());
            EXPECT_EQ(got, want);
            EXPECT_EQ(second.offset(), input.size());
        }
    }
}

/**
 * The run that decides builds nothing; the next stream takes the
 * decided automaton's table. Bro217 is below the size floor: never
 * decided, always sparse, nothing built. Brill's first stream decides
 * sparse and runs sparse, byte-identical to Engine::run on an undecided
 * copy; the next stream builds and runs the split. An automaton of 300
 * "ab" rules decides dense: the deciding stream runs the dense core
 * from symbol 0, parked and resumed after its first chunk, and the
 * next stream builds and runs the DFA. A first chunk shorter than
 * kProbeCycles decides nothing.
 */
TEST(Session, DecidingStreamBuildsNothing)
{
    for (const char *abbr : {"Bro217", "Brill"}) {
        SCOPED_TRACE(abbr);
        const SmallWorkload sw(abbr);
        FlatAutomaton fa(sw.w.app);
        FlatAutomaton reference(sw.w.app);
        const bool decides = fa.size() >= Engine::kMinDenseStates;
        EXPECT_EQ(decides, std::string(abbr) == "Brill");
        const SimResult want =
            wholeRun(reference, EngineMode::Auto, true, sw.input);
        EXPECT_FALSE(want.usedDfa);
        EXPECT_FALSE(want.usedDenseCore);

        const SessionConfig config =
            engineParityConfig(EngineMode::Auto, true, sw.input);
        EngineSession session(fa, config);
        session.restart();
        session.feed(sw.input);
        EXPECT_EQ(session.resolvedMode(), EngineMode::Sparse);
        EXPECT_EQ(session.takeReports(), want.reports);
        EXPECT_EQ(fa.coreDecision().has_value(), decides);
        EXPECT_EQ(fa.splitIfBuilt(), nullptr);
        session.restart();
        EXPECT_EQ(session.resolvedMode(),
                  decides ? EngineMode::Split : EngineMode::Sparse);
        EXPECT_EQ(fa.splitIfBuilt() != nullptr, decides);
        EXPECT_EQ(fa.hotDfaIfBuilt(), nullptr);
        EXPECT_EQ(reference.hotDfaIfBuilt(), nullptr);
        EXPECT_EQ(reference.splitIfBuilt(), nullptr);
    }

    Application app("dense", "D");
    for (int i = 0; i < 300; ++i)
        app.addNfa(compileRegex("ab", "p" + std::to_string(i)));
    FlatAutomaton fa(app);
    ASSERT_GE(fa.size(), Engine::kMinDenseStates);
    std::vector<uint8_t> input(1000, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';
    const ReportList want = testing::naiveSimulate(app, input);
    const SessionConfig config =
        engineParityConfig(EngineMode::Auto, true, input);

    // Short first chunks run sparse and decide nothing.
    EXPECT_EQ(sorted(chunkedReports(fa, config, input, 1)), want);
    EXPECT_FALSE(fa.coreDecision().has_value());

    EngineSession first(fa, config);
    first.restart();
    first.feed(std::span(input).first(Engine::kProbeCycles));
    ASSERT_TRUE(fa.coreDecision().has_value());
    EXPECT_TRUE(fa.coreDecision()->dense);
    EXPECT_EQ(fa.coreDecision()->table, CoreDecision::Table::Pending);
    ReportList got = first.takeReports();
    EngineSession second(fa, config);
    second.resume(first.suspend());
    second.feed(std::span(input).subspan(Engine::kProbeCycles));
    EXPECT_EQ(second.resolvedMode(), EngineMode::Dense);
    EXPECT_TRUE(second.stats().usedDenseCore);
    const ReportList tail = second.takeReports();
    got.insert(got.end(), tail.begin(), tail.end());
    EXPECT_EQ(sorted(got), want);
    EXPECT_EQ(fa.hotDfaIfBuilt(), nullptr);

    second.restart();
    EXPECT_NE(fa.hotDfaIfBuilt(), nullptr);
    EXPECT_EQ(fa.coreDecision()->table, CoreDecision::Table::Built);
    EXPECT_EQ(second.resolvedMode(), EngineMode::Dfa);
}

/**
 * @p input through auto streams on @p fa: the first chunk @p first
 * bytes long, the rest random, parked into a fresh session before the
 * first byte (sometimes) and at random chunk boundaries. @p resolved
 * receives the core the stream ended on.
 */
ReportList
parkedStream(const FlatAutomaton &fa, const SessionConfig &config,
             std::span<const uint8_t> input, size_t first, Rng &rng,
             EngineMode *resolved)
{
    auto session = std::make_unique<EngineSession>(fa, config);
    auto park = [&] {
        const EngineSession::Snapshot snap = session->suspend();
        session = std::make_unique<EngineSession>(fa);
        session->resume(snap);
    };
    session->restart();
    if (rng.chance(0.5))
        park();
    ReportList got;
    for (size_t at = 0; at < input.size();) {
        const size_t take =
            std::min(input.size() - at, at == 0 ? first : 1 + rng.index(97));
        session->feed(input.subspan(at, take));
        at += take;
        const ReportList part = session->takeReports();
        got.insert(got.end(), part.begin(), part.end());
        if (rng.chance(0.3))
            park();
    }
    *resolved = session->resolvedMode();
    return got;
}

/**
 * The oracle gate on auto's one decision per automaton. Random automata
 * (dense ones over a narrow alphabet, sparse ones over a wide one) and
 * rule sets with planted matches, all large enough to be decided. A
 * first stream, its first chunk shorter or longer than kProbeCycles,
 * parked at offset 0 and mid-stream into fresh sessions, with the skip
 * on or off: its sorted reports equal the naive simulator's; a short
 * first chunk decides nothing, a long one decides, and the deciding run
 * builds nothing. Then, on the decided automaton, Engine::run and a
 * second parked stream are byte-identical. Enough cases must report,
 * decide dense, decide sparse, and run a split.
 */
TEST(Session, PropertyOneDecisionPerAutomaton)
{
    Rng rng(20181024);
    size_t dense_cases = 0, sparse_cases = 0, split_cases = 0;
    size_t reporting_cases = 0;
    for (int trial = 0; trial < 90; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Application app("empty", "E");
        std::vector<std::vector<uint8_t>> matches;
        unsigned alphabet = 32;
        if (trial % 3 == 2) {
            app = testing::randomRuleSet(rng, 60 + rng.index(30), alphabet,
                                         &matches);
        } else {
            testing::RandomNfaParams params;
            params.minStates = 8;
            params.reportProb = 0.1;
            params.sodProb = 0.1;
            const bool dense = trial % 3 == 0;
            params.alphabetSize = alphabet = dense ? 4 : 96;
            params.maxSymbols = dense ? 2 : 3;
            params.extraStartProb = dense ? 0.3 : 0.05;
            app = testing::randomApplication(rng, 32 + rng.index(12),
                                             params);
            for (const Nfa &nfa : app.nfas())
                matches.push_back(testing::matchingBytes(nfa));
        }
        FlatAutomaton fa(app);
        ASSERT_GE(fa.size(), Engine::kMinDenseStates);

        std::vector<uint8_t> input = testing::randomInput(rng, 800, alphabet);
        for (int k = 0; k < 8; ++k) {
            const std::vector<uint8_t> &m =
                matches[rng.index(matches.size())];
            const size_t at =
                k == 0 ? 0 : rng.index(input.size() - m.size());
            std::copy(m.begin(), m.end(), input.begin() + at);
        }
        const ReportList want = testing::naiveSimulate(app, input);
        reporting_cases += want.empty() ? 0 : 1;
        const bool skip = rng.chance(0.5);
        SessionConfig config;
        config.mode = EngineMode::Auto;
        config.inputSkip = skip;

        const bool short_first = rng.chance(0.5);
        const size_t first =
            short_first ? 1 + rng.index(Engine::kProbeCycles - 1)
                        : Engine::kProbeCycles + rng.index(200);
        EngineMode resolved = EngineMode::Auto;
        EXPECT_EQ(sorted(parkedStream(fa, config, input, first, rng,
                                      &resolved)),
                  want);
        EXPECT_EQ(fa.coreDecision().has_value(), !short_first);

        Engine engine(fa, EngineMode::Auto);
        engine.setInputSkip(skip);
        if (short_first) { // then this run decides
            EXPECT_EQ(sorted(engine.run(input).reports), want);
        }
        ASSERT_TRUE(fa.coreDecision().has_value());
        EXPECT_EQ(fa.hotDfaIfBuilt(), nullptr) << "the deciding run built";
        EXPECT_EQ(fa.splitIfBuilt(), nullptr) << "the deciding run built";

        const SimResult whole = engine.run(input);
        EXPECT_EQ(sorted(whole.reports), want);
        config.alphabet = ExecCore::distinctBytes(input);
        EXPECT_EQ(parkedStream(fa, config, input, 1 + rng.index(300), rng,
                               &resolved),
                  whole.reports);
        EXPECT_EQ(resolved, engine.resolvedMode());
        const CoreDecision d = *fa.coreDecision();
        (d.dense ? dense_cases : sparse_cases) += 1;
        split_cases += resolved == EngineMode::Split ? 1 : 0;
    }
    std::printf("one decision: %zu dense, %zu sparse, %zu on the split, "
                "%zu reporting\n",
                dense_cases, sparse_cases, split_cases, reporting_cases);
    EXPECT_GE(dense_cases, 20u);
    EXPECT_GE(sparse_cases, 20u);
    EXPECT_GE(split_cases, 20u);
    EXPECT_GE(reporting_cases, 80u);
}

/** Empty chunks and empty streams are legal no-ops. */
TEST(Session, EmptyChunksAreNoOps)
{
    Rng input_rng(20180621);
    Workload w = generateWorkload("EM", 7, 5);
    size_t bytes = 256;
    if (w.inputBytesCap > 0)
        bytes = std::min(bytes, w.inputBytesCap);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, bytes, input_rng);
    FlatAutomaton fa(w.app);

    const SimResult want =
        wholeRun(fa, EngineMode::Auto, true, input);
    const SessionConfig config =
        engineParityConfig(EngineMode::Auto, true, input);

    EngineSession session(fa, config);
    session.restart();
    session.feed({});
    session.feed(std::span(input).first(input.size() / 2));
    session.feed({});
    session.feed(std::span(input).subspan(input.size() / 2));
    session.feed({});
    EXPECT_EQ(session.offset(), input.size());
    EXPECT_EQ(session.reports(), want.reports);

    // A stream of nothing reports nothing.
    EngineSession empty(fa, config);
    empty.restart();
    empty.feed({});
    EXPECT_EQ(empty.offset(), 0u);
    EXPECT_TRUE(empty.reports().empty());
}

} // namespace
} // namespace sparseap
