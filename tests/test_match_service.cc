/**
 * @file
 * MatchService session-table tests: the service is a scheduling and
 * residency layer over EngineSession, so its contract is byte-level —
 * any open/feed/close interleaving across tenants and streams, under
 * any resident-session budget, in every engine mode, with the fused
 * DFA interleave engaged and not, must produce per-stream report
 * multisets identical to whole-input Engine::run over each stream's
 * concatenated bytes. (Multisets, not sequences: the service runs the
 * safe all-bytes stream alphabet, which may reorder reports within one
 * position vs the exact-alphabet whole-input run; digests sort first,
 * like bench/multi_stream.) The thread-sanitizer CI leg runs these to
 * vet the shared-FlatAutomaton concurrency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/match_service.h"
#include "sim/engine.h"
#include "store/format.h"
#include "support/naive_sim.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "workloads/registry.h"

using namespace sparseap;
using namespace sparseap::serve;

namespace {

uint64_t
sortedDigest(ReportList reports)
{
    std::sort(reports.begin(), reports.end());
    store::DigestBuilder d;
    for (const Report &r : reports) {
        d.add(r.position);
        d.add(r.state);
    }
    return d.digest();
}

/** feedMany with a single entry: one chunk of one stream. */
OpStatus
feedOne(MatchService &service, const std::string &tenant,
        uint64_t stream_id, std::span<const uint8_t> chunk,
        ReportGroup *out)
{
    const FeedEntry entry{stream_id, chunk};
    std::vector<ReportGroup> groups;
    const OpStatus st = service.feedMany(tenant, {&entry, 1}, &groups);
    if (st == OpStatus::Ok)
        *out = std::move(groups.at(0));
    return st;
}

struct ServiceFixture
{
    std::vector<std::shared_ptr<FlatAutomaton>> automata;
    std::vector<std::string> names;
    std::vector<std::vector<uint8_t>> inputs; ///< one per tenant

    explicit ServiceFixture(std::initializer_list<const char *> abbrs,
                            size_t input_bytes = 32 * 1024)
    {
        Rng rng(123);
        for (const char *abbr : abbrs) {
            Workload w = generateWorkload(abbr, 7, 5);
            automata.push_back(std::make_shared<FlatAutomaton>(w.app));
            names.push_back(abbr);
            inputs.push_back(
                synthesizeInput(w.input, input_bytes, rng));
        }
    }

    void registerAll(MatchService *service) const
    {
        for (size_t i = 0; i < automata.size(); ++i)
            service->addTenant(names[i], automata[i]);
    }

    uint64_t wholeInputDigest(size_t tenant,
                              std::span<const uint8_t> input) const
    {
        Engine engine(*automata[tenant], EngineMode::Auto);
        return sortedDigest(engine.run(input).reports);
    }
};

} // namespace

TEST(MatchService, TenantRegistry)
{
    ServiceFixture fx({"Bro217", "Brill"});
    MatchService service;
    fx.registerAll(&service);
    EXPECT_TRUE(service.hasTenant("Bro217"));
    EXPECT_TRUE(service.hasTenant("Brill"));
    EXPECT_FALSE(service.hasTenant("nope"));
    const auto tenants = service.tenants();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_GT(tenants[0].states, 0u);
}

TEST(MatchService, OpenFeedCloseMatchesWholeInputRun)
{
    ServiceFixture fx({"Bro217", "Brill"});
    MatchService service;
    fx.registerAll(&service);

    for (size_t t = 0; t < fx.names.size(); ++t) {
        const auto &input = fx.inputs[t];
        ASSERT_EQ(service.open(fx.names[t], 1), OpStatus::Ok);
        ReportList all;
        const size_t chunk = 1000; // deliberately odd-sized
        for (size_t off = 0; off < input.size(); off += chunk) {
            const size_t n = std::min(chunk, input.size() - off);
            ReportGroup group;
            ASSERT_EQ(feedOne(service, fx.names[t], 1,
                              {input.data() + off, n}, &group),
                      OpStatus::Ok);
            EXPECT_EQ(group.streamOffset, off + n);
            all.insert(all.end(), group.reports.begin(),
                       group.reports.end());
        }
        ReportGroup tail;
        ASSERT_EQ(service.close(fx.names[t], 1, &tail), OpStatus::Ok);
        EXPECT_EQ(tail.streamOffset, input.size());
        all.insert(all.end(), tail.reports.begin(), tail.reports.end());
        EXPECT_EQ(sortedDigest(std::move(all)),
                  fx.wholeInputDigest(t, input));
    }
    EXPECT_EQ(service.openStreamCount(), 0u);
}

TEST(MatchService, TableErrors)
{
    ServiceFixture fx({"Bro217"});
    MatchServiceConfig config;
    config.maxStreamsPerTenant = 2;
    MatchService service(config);
    fx.registerAll(&service);

    ReportGroup group;
    EXPECT_EQ(service.open("nope", 1), OpStatus::UnknownTenant);
    EXPECT_EQ(feedOne(service, "nope", 1, {}, &group),
              OpStatus::UnknownTenant);
    EXPECT_EQ(feedOne(service, "Bro217", 9, {}, &group),
              OpStatus::UnknownStream);
    EXPECT_EQ(service.close("Bro217", 9, &group),
              OpStatus::UnknownStream);

    EXPECT_EQ(service.open("Bro217", 1), OpStatus::Ok);
    EXPECT_EQ(service.open("Bro217", 1), OpStatus::StreamExists);
    EXPECT_EQ(service.open("Bro217", 2), OpStatus::Ok);
    EXPECT_EQ(service.open("Bro217", 3), OpStatus::TooManyStreams);
}

TEST(MatchService, ParkingUnderTinyBudgetStaysByteIdentical)
{
    // 16 interleaved streams against a 2-resident budget: all but two
    // live as snapshots at any time, so every round trips through
    // suspend()/resume(). The report digests must not notice.
    ServiceFixture fx({"Bro217"});
    MatchServiceConfig config;
    config.residentSessions = 2;
    config.sessionPoolSize = 2;
    MatchService service(config);
    fx.registerAll(&service);

    constexpr size_t kStreams = 16;
    const auto &input = fx.inputs[0];
    std::vector<ReportList> collected(kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        ASSERT_EQ(service.open("Bro217", s), OpStatus::Ok);

    const size_t chunk = 777;
    for (size_t off = 0; off < input.size(); off += chunk) {
        const size_t n = std::min(chunk, input.size() - off);
        for (size_t s = 0; s < kStreams; ++s) {
            ReportGroup group;
            ASSERT_EQ(feedOne(service, "Bro217", s,
                              {input.data() + off, n}, &group),
                      OpStatus::Ok);
            collected[s].insert(collected[s].end(),
                                group.reports.begin(),
                                group.reports.end());
        }
        EXPECT_LE(service.stats().residentSessions,
                  config.residentSessions);
    }

    const uint64_t want = fx.wholeInputDigest(0, input);
    for (size_t s = 0; s < kStreams; ++s) {
        ReportGroup tail;
        ASSERT_EQ(service.close("Bro217", s, &tail), OpStatus::Ok);
        collected[s].insert(collected[s].end(), tail.reports.begin(),
                            tail.reports.end());
        EXPECT_EQ(sortedDigest(std::move(collected[s])), want)
            << "stream " << s;
    }

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.parks, 0u);
    EXPECT_GT(stats.resumes, 0u);
    EXPECT_EQ(stats.activeStreams, 0u);
    EXPECT_EQ(stats.parkedBytes, 0u);
    EXPECT_EQ(stats.residentSessions, 0u);
}

TEST(MatchService, ParkedBytesTrackSnapshotSizes)
{
    ServiceFixture fx({"Bro217"});
    MatchServiceConfig config;
    config.residentSessions = 1;
    MatchService service(config);
    fx.registerAll(&service);

    ASSERT_EQ(service.open("Bro217", 1), OpStatus::Ok);
    ASSERT_EQ(service.open("Bro217", 2), OpStatus::Ok);
    ReportGroup group;
    const auto &input = fx.inputs[0];
    ASSERT_EQ(feedOne(service, "Bro217", 1, {input.data(), 4096}, &group),
              OpStatus::Ok);
    ASSERT_EQ(feedOne(service, "Bro217", 2, {input.data(), 4096}, &group),
              OpStatus::Ok);
    // Stream 1 was parked to make room for stream 2's session.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.residentSessions, 1u);
    EXPECT_EQ(stats.parkedSessions, 1u);
    EXPECT_GT(stats.parkedBytes, 0u);
}

/**
 * Streams on the DFA table take feedMany's fused interleave — for a
 * tenant pinned to dfa, and for a default-config (auto) tenant whose
 * automaton was determinized before serving, as apserved does at load:
 * auto runs a built DFA from each stream's first byte.
 */
TEST(MatchService, FeedManyUsesFusedDfaPath)
{
    ServiceFixture fx({"Bro217"});
    ASSERT_NE(fx.automata[0]->ensureHotDfa(), nullptr)
        << "Bro217@5% must determinize for this test";
    const auto &input = fx.inputs[0];
    Engine engine(*fx.automata[0], EngineMode::Sparse);
    const uint64_t want = sortedDigest(engine.run(input).reports);

    for (EngineMode mode : {EngineMode::Dfa, EngineMode::Auto}) {
        const std::string tenant =
            std::string("Bro217-") + engineModeName(mode);
        SCOPED_TRACE(tenant);
        MatchService service;
        SessionConfig session;
        session.mode = mode;
        service.addTenant(tenant, fx.automata[0], session);

        // The tenant's first stream steps the table.
        const std::string dfa_cycles =
            telemetry::labeledName("serve.dfa_cycles", tenant);
        ASSERT_EQ(service.open(tenant, 100), OpStatus::Ok);
        ReportGroup first;
        ASSERT_EQ(feedOne(service, tenant, 100, {input.data(), 4096}, &first),
                  OpStatus::Ok);
        ASSERT_EQ(service.close(tenant, 100, &first), OpStatus::Ok);
        EXPECT_EQ(telemetry::snapshot().counters[dfa_cycles], 4096u);

        constexpr size_t kStreams = 8;
        for (size_t s = 0; s < kStreams; ++s)
            ASSERT_EQ(service.open(tenant, s), OpStatus::Ok);

        std::vector<ReportList> collected(kStreams);
        const size_t chunk = 4096;
        for (size_t off = 0; off < input.size(); off += chunk) {
            const size_t n = std::min(chunk, input.size() - off);
            std::vector<FeedEntry> entries;
            for (size_t s = 0; s < kStreams; ++s)
                entries.push_back({s, {input.data() + off, n}});
            std::vector<ReportGroup> groups;
            ASSERT_EQ(service.feedMany(tenant, entries, &groups),
                      OpStatus::Ok);
            ASSERT_EQ(groups.size(), kStreams);
            for (size_t s = 0; s < kStreams; ++s) {
                EXPECT_EQ(groups[s].streamId, s);
                collected[s].insert(collected[s].end(),
                                    groups[s].reports.begin(),
                                    groups[s].reports.end());
            }
        }

        for (size_t s = 0; s < kStreams; ++s) {
            ReportGroup tail;
            ASSERT_EQ(service.close(tenant, s, &tail), OpStatus::Ok);
            collected[s].insert(collected[s].end(), tail.reports.begin(),
                                tail.reports.end());
            EXPECT_EQ(sortedDigest(std::move(collected[s])), want)
                << "stream " << s;
        }
        EXPECT_GT(service.stats().fusedFeeds, 0u);
    }
}

/**
 * Entries naming a stream twice feed in entry order, and each entry's
 * group holds exactly the reports its own chunk produced: on the NFA
 * cores (auto, before the automaton has a DFA) and on the DFA table,
 * where a repeated id turns fusion off for the whole call.
 */
TEST(MatchService, FeedManyDuplicateStreamIdsFeedInOrder)
{
    ServiceFixture fx({"Bro217"});
    const auto &input = fx.inputs[0];
    const uint64_t want = fx.wholeInputDigest(0, input);
    const size_t half = input.size() / 2;
    const size_t third = input.size() / 3;
    const std::vector<FeedEntry> entries = {
        {1, {input.data(), half}},
        {2, {input.data(), third}},
        {1, {input.data() + half, input.size() - half}},
        {2, {input.data() + third, input.size() - third}},
    };
    const uint64_t starts[] = {0, 0, half, third};

    for (EngineMode mode : {EngineMode::Auto, EngineMode::Dfa}) {
        SCOPED_TRACE(engineModeName(mode));
        if (mode == EngineMode::Dfa) {
            ASSERT_NE(fx.automata[0]->ensureHotDfa(), nullptr);
        }
        SessionConfig session;
        session.mode = mode;
        MatchService service;
        service.addTenant("Bro217", fx.automata[0], session);
        ASSERT_EQ(service.open("Bro217", 1), OpStatus::Ok);
        ASSERT_EQ(service.open("Bro217", 2), OpStatus::Ok);

        std::vector<ReportGroup> groups;
        ASSERT_EQ(service.feedMany("Bro217", entries, &groups),
                  OpStatus::Ok);
        ASSERT_EQ(groups.size(), entries.size());
        EXPECT_EQ(service.stats().fusedFeeds, 0u);

        std::vector<ReportList> all(3);
        for (size_t i = 0; i < groups.size(); ++i) {
            const ReportGroup &g = groups[i];
            EXPECT_EQ(g.streamId, entries[i].streamId);
            EXPECT_EQ(g.streamOffset,
                      starts[i] + entries[i].chunk.size());
            for (const Report &r : g.reports) {
                EXPECT_GE(r.position, starts[i]) << "entry " << i;
                EXPECT_LT(r.position, g.streamOffset) << "entry " << i;
            }
            all[g.streamId].insert(all[g.streamId].end(),
                                   g.reports.begin(), g.reports.end());
        }
        for (uint64_t id : {1, 2}) {
            ReportGroup tail;
            ASSERT_EQ(service.close("Bro217", id, &tail), OpStatus::Ok);
            EXPECT_EQ(tail.streamOffset, input.size());
            all[id].insert(all[id].end(), tail.reports.begin(),
                           tail.reports.end());
            EXPECT_EQ(sortedDigest(std::move(all[id])), want)
                << "stream " << id;
        }
    }
}

/**
 * An unknown id fails the call before any byte is fed, even when an
 * earlier entry repeats an open stream's id.
 */
TEST(MatchService, FeedManyRejectsUnknownIdBeforeFeedingDuplicates)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    fx.registerAll(&service);
    ASSERT_EQ(service.open("Bro217", 1), OpStatus::Ok);

    const auto &input = fx.inputs[0];
    const size_t half = input.size() / 2;
    const std::vector<FeedEntry> entries = {
        {1, {input.data(), half}},
        {1, {input.data() + half, input.size() - half}},
        {99, {input.data(), 16}},
    };
    std::vector<ReportGroup> groups;
    EXPECT_EQ(service.feedMany("Bro217", entries, &groups),
              OpStatus::UnknownStream);
    EXPECT_EQ(service.stats().fedBytes, 0u);

    ReportGroup tail;
    ASSERT_EQ(service.close("Bro217", 1, &tail), OpStatus::Ok);
    EXPECT_EQ(tail.streamOffset, 0u);
    EXPECT_TRUE(tail.reports.empty());
}

/**
 * feedMany in every engine mode over determinized automata: an empty
 * request, then six streams whose chunks differ in length within each
 * round (so the fused interleave finishes unequal tails one stream at a
 * time), one empty chunk and one all-empty round. Each stream's reports
 * must equal its whole-input Engine::run, and each group's offset the
 * bytes fed. A match of the first pattern is planted in every stream,
 * because EM's synthesized input never reaches a report on its own.
 */
TEST(MatchService, FeedManyMatchesWholeInputRunInEveryMode)
{
    constexpr size_t kStreams = 6;
    constexpr size_t kBytes = 4096;
    Rng rng(20180621);
    for (const char *abbr : {"Bro217", "Brill", "EM"}) {
        Workload w = generateWorkload(abbr, 7, 5);
        auto fa = std::make_shared<FlatAutomaton>(w.app);
        ASSERT_NE(fa->ensureHotDfa(), nullptr)
            << abbr << " at 5% scale must determinize";
        const std::vector<uint8_t> match = matchingBytes(w.app.nfa(0));
        ASSERT_FALSE(match.empty());
        std::vector<std::vector<uint8_t>> inputs;
        for (size_t s = 0; s < kStreams; ++s) {
            inputs.push_back(synthesizeInput(w.input, kBytes, rng));
            const size_t at = 1000 + 400 * s;
            ASSERT_LE(at + match.size(), inputs.back().size());
            std::copy(match.begin(), match.end(),
                      inputs.back().begin() + at);
        }

        for (EngineMode mode :
             {EngineMode::Sparse, EngineMode::Dense, EngineMode::Dfa,
              EngineMode::Auto}) {
            SCOPED_TRACE(std::string(abbr) + " mode " +
                         engineModeName(mode));
            SessionConfig session;
            session.mode = mode;
            session.inputSkip = true;
            MatchService service;
            service.addTenant(abbr, fa, session);
            for (size_t s = 0; s < kStreams; ++s)
                ASSERT_EQ(service.open(abbr, s), OpStatus::Ok);
            std::vector<ReportGroup> none(1);
            ASSERT_EQ(service.feedMany(abbr, {}, &none), OpStatus::Ok);
            EXPECT_TRUE(none.empty());

            std::vector<ReportList> got(kStreams);
            std::vector<size_t> fed(kStreams, 0);
            for (size_t round = 0;; ++round) {
                std::vector<FeedEntry> entries;
                for (size_t s = 0; s < kStreams; ++s) {
                    const bool empty =
                        round == 2 || (round == 1 && s == 3);
                    const size_t want = empty ? 0 : 300 + 97 * s;
                    const size_t n =
                        std::min(want, inputs[s].size() - fed[s]);
                    entries.push_back(
                        {s, {inputs[s].data() + fed[s], n}});
                    fed[s] += n;
                }
                std::vector<ReportGroup> groups;
                ASSERT_EQ(service.feedMany(abbr, entries, &groups),
                          OpStatus::Ok);
                ASSERT_EQ(groups.size(), kStreams);
                for (size_t s = 0; s < kStreams; ++s) {
                    EXPECT_EQ(groups[s].streamId, s);
                    EXPECT_EQ(groups[s].streamOffset, fed[s]);
                    got[s].insert(got[s].end(),
                                  groups[s].reports.begin(),
                                  groups[s].reports.end());
                }
                bool done = true;
                for (size_t s = 0; s < kStreams; ++s)
                    done = done && fed[s] == inputs[s].size();
                if (done)
                    break;
            }

            size_t reports = 0;
            for (size_t s = 0; s < kStreams; ++s) {
                ReportGroup tail;
                ASSERT_EQ(service.close(abbr, s, &tail), OpStatus::Ok);
                EXPECT_EQ(tail.streamOffset, inputs[s].size());
                got[s].insert(got[s].end(), tail.reports.begin(),
                              tail.reports.end());
                reports += got[s].size();
                Engine engine(*fa, mode);
                EXPECT_EQ(sortedDigest(std::move(got[s])),
                          sortedDigest(engine.run(inputs[s]).reports))
                    << "stream " << s;
            }
            EXPECT_GT(reports, 0u) << "the digest gate compared nothing";
            const bool on_dfa =
                mode == EngineMode::Dfa || mode == EngineMode::Auto;
            EXPECT_EQ(service.stats().fusedFeeds > 0, on_dfa);
        }
    }
}

TEST(MatchService, OneShotAndBatchMatchWholeInputRun)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    fx.registerAll(&service);
    const auto &input = fx.inputs[0];
    const uint64_t want = fx.wholeInputDigest(0, input);

    ReportGroup group;
    ASSERT_EQ(service.matchOneShot("Bro217", input, &group),
              OpStatus::Ok);
    EXPECT_EQ(sortedDigest(group.reports), want);
    EXPECT_EQ(group.streamOffset, input.size());
}

TEST(MatchService, ReleaseOwnerSweepsOnlyThatOwner)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    fx.registerAll(&service);
    ASSERT_EQ(service.open("Bro217", 1, /*owner=*/100), OpStatus::Ok);
    ASSERT_EQ(service.open("Bro217", 2, /*owner=*/100), OpStatus::Ok);
    ASSERT_EQ(service.open("Bro217", 3, /*owner=*/200), OpStatus::Ok);

    EXPECT_EQ(service.releaseOwner(100), 2u);
    EXPECT_EQ(service.openStreamCount(), 1u);
    ReportGroup group;
    EXPECT_EQ(feedOne(service, "Bro217", 1, {}, &group),
              OpStatus::UnknownStream);
    EXPECT_EQ(feedOne(service, "Bro217", 3, fx.inputs[0], &group),
              OpStatus::Ok);
    EXPECT_EQ(service.releaseOwner(200), 1u);
    EXPECT_EQ(service.openStreamCount(), 0u);
}

TEST(MatchService, ConcurrentStreamsStayIsolated)
{
    // 8 threads, each its own stream, feeding concurrently under a
    // budget that forces parking races; every stream's digest must
    // still match the whole-input run (TSan leg doubles as the data
    // race check here).
    ServiceFixture fx({"Bro217", "Brill"});
    MatchServiceConfig config;
    config.residentSessions = 3;
    MatchService service(config);
    fx.registerAll(&service);

    constexpr size_t kThreads = 8;
    std::vector<uint64_t> digests(kThreads);
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kThreads; ++s) {
        threads.emplace_back([&, s] {
            const size_t tenant = s % fx.names.size();
            const auto &input = fx.inputs[tenant];
            ASSERT_EQ(service.open(fx.names[tenant], s), OpStatus::Ok);
            ReportList all;
            const size_t chunk = 1024 + 128 * s; // distinct grids
            for (size_t off = 0; off < input.size(); off += chunk) {
                const size_t n = std::min(chunk, input.size() - off);
                ReportGroup group;
                ASSERT_EQ(feedOne(service, fx.names[tenant], s,
                                  {input.data() + off, n}, &group),
                          OpStatus::Ok);
                all.insert(all.end(), group.reports.begin(),
                           group.reports.end());
            }
            ReportGroup tail;
            ASSERT_EQ(service.close(fx.names[tenant], s, &tail),
                      OpStatus::Ok);
            all.insert(all.end(), tail.reports.begin(),
                       tail.reports.end());
            digests[s] = sortedDigest(std::move(all));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (size_t s = 0; s < kThreads; ++s) {
        const size_t tenant = s % fx.names.size();
        EXPECT_EQ(digests[s],
                  fx.wholeInputDigest(tenant, fx.inputs[tenant]))
            << "stream " << s;
    }
    EXPECT_EQ(service.openStreamCount(), 0u);
    EXPECT_EQ(service.stats().parkedBytes, 0u);
}

namespace {

/**
 * An automaton whose split build runs long and bails: a start-of-data
 * state entering a ring that counts 'x' bytes, whose 2 * kRing
 * activated sets each discover at most two more (so the BFS expands
 * nearly the whole 2048-state budget before giving up), plus
 * never-enabled single-byte states that cut the alphabet into 256
 * classes and widen every key. All of it is at layer <= 1, so all of
 * it is hot.
 */
std::shared_ptr<FlatAutomaton>
slowSplitAutomaton()
{
    constexpr size_t kRing = 1100; // 2 * kRing > the 2048-state budget
    constexpr size_t kFiller = 6144;
    SymbolSet not_x = SymbolSet::all();
    not_x.reset('x');
    Nfa nfa("ring");
    const StateId start =
        nfa.addState(SymbolSet::all(), StartKind::StartOfData);
    std::vector<StateId> xs(kRing), ys(kRing);
    for (size_t i = 0; i < kRing; ++i) {
        xs[i] = nfa.addState(SymbolSet::single('x'));
        ys[i] = nfa.addState(not_x);
    }
    // At position i, xs[i] moves on ('x') and ys[i] stays.
    nfa.addEdge(start, xs[0]);
    nfa.addEdge(start, ys[0]);
    for (size_t i = 0; i < kRing; ++i) {
        const size_t next = (i + 1) % kRing;
        nfa.addEdge(xs[i], xs[next]);
        nfa.addEdge(xs[i], ys[next]);
        nfa.addEdge(ys[i], xs[i]);
        nfa.addEdge(ys[i], ys[i]);
    }
    for (size_t i = 0; i < kFiller; ++i)
        nfa.addState(SymbolSet::single(static_cast<uint8_t>(i)));
    nfa.finalize();
    Application app("ring", "ring");
    app.addNfa(std::move(nfa));
    return std::make_shared<FlatAutomaton>(app);
}

} // namespace

/**
 * A decided tenant's first stream builds its table in the stream's
 * checkout, over the whole automaton; it must not hold the service
 * lock. The Slow tenant is decided sparse at load, as the daemon does,
 * so its first restart builds the split; while that build is under way
 * another tenant opens, feeds and closes a stream, and all of that
 * finishes before the build bails out.
 */
TEST(MatchService, NominatedBuildDoesNotBlockOtherTenants)
{
    const std::shared_ptr<FlatAutomaton> slow = slowSplitAutomaton();
    ASSERT_GE(slow->size(), Engine::kMinDenseStates);
    Workload w = generateWorkload("Bro217", 7, 5);
    MatchService service;
    SessionConfig config;
    config.mode = EngineMode::Auto;
    service.addTenant("Slow", slow, config);
    service.addTenant("Quick", std::make_shared<FlatAutomaton>(w.app),
                      config);
    const std::vector<uint8_t> quiet(256, 'a');
    auto counter = [](const char *name) {
        return telemetry::snapshot().counters[name];
    };
    const std::optional<CoreDecision> d =
        slow->decideCore(quiet, Bitset256::all());
    ASSERT_TRUE(d.has_value());
    ASSERT_FALSE(d->dense);

    ReportGroup g;
    const uint64_t builds = counter("split.builds");
    const uint64_t bailouts = counter("split.bailouts");
    ASSERT_EQ(service.open("Slow", 1), OpStatus::Ok);
    std::thread slow_feed([&] {
        ReportGroup out;
        EXPECT_EQ(feedOne(service, "Slow", 1, quiet, &out), OpStatus::Ok);
    });
    while (counter("split.builds") == builds)
        std::this_thread::yield();

    ASSERT_EQ(service.open("Quick", 1), OpStatus::Ok);
    EXPECT_EQ(feedOne(service, "Quick", 1, quiet, &g), OpStatus::Ok);
    EXPECT_EQ(service.close("Quick", 1, &g), OpStatus::Ok);
    EXPECT_EQ(counter("split.bailouts"), bailouts)
        << "the Quick tenant waited for the Slow tenant's split build";

    slow_feed.join();
    EXPECT_EQ(counter("split.bailouts"), bailouts + 1);
    EXPECT_EQ(slow->splitIfBuilt(), nullptr);
    EXPECT_EQ(slow->coreDecision()->table, CoreDecision::Table::Bailed);
    ASSERT_EQ(service.close("Slow", 1, &g), OpStatus::Ok);
}
