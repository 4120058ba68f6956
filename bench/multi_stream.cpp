/**
 * @file
 * Multi-stream batch throughput: aggregate bytes/sec of B independent
 * streams over one shared automaton, served through a MatchService
 * tenant with one feedMany call per 4096-byte round — the daemon's Feed
 * path, which runs the fused DFA interleave over the streams on the DFA
 * table — against the same B streams run one after another through
 * dedicated sessions.
 *
 * Two row groups:
 *  - determinizable rule sets at test scale (Bro217, Brill, EM, LV) in
 *    DFA mode — the fused interleave keeps B independent table-lookup
 *    dependency chains in flight where a lone stream is latency-bound
 *    on its own dependent loads, so these rows carry the headline
 *    single-core batch speedup;
 *  - full-scale workloads in auto mode, where batching must at least
 *    break even (the NFA cores are throughput- not latency-bound).
 *
 * Correctness gate: every batch stream's report digest must equal the
 * whole-input Engine::run digest for the same bytes — the batch is a
 * scheduling change, never an approximation — and main() exits nonzero
 * on any mismatch (CI perf-smoke inherits the failure). Digests are
 * order-canonicalized (sorted) because the service runs the safe
 * all-bytes stream alphabet while Engine::run resolves the input's
 * exact distinct-byte set, which may reorder reports *within* one
 * position on the sparse core; the report multiset is identical.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sparseap.h"
#include "serve/match_service.h"
#include "sim/exec_core.h"
#include "store/format.h"

using namespace sparseap;

namespace {

constexpr size_t kStreamCounts[] = {1, 4, 16, 64};

/** Bytes per stream per feedMany round. */
constexpr size_t kRoundBytes = 4096;

/** Best-of-@p reps wall seconds of @p fn. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/** Order-canonicalized digest of a report stream. */
uint64_t
sortedDigest(ReportList reports)
{
    std::sort(reports.begin(), reports.end());
    store::DigestBuilder d;
    for (const Report &r : reports) {
        d.add(r.position); // full 64-bit stream offset
        d.add(r.state);
    }
    return d.digest();
}

struct BenchCase
{
    std::string label;
    EngineMode mode = EngineMode::Auto;
    const FlatAutomaton *fa = nullptr;
    std::vector<std::vector<uint8_t>> streams; // kStreamCounts.back()
};

/** Exit nonzero on a failed service call: the digest gate alone would
 *  pass a workload that reports nothing. */
void
require(serve::OpStatus st)
{
    if (st != serve::OpStatus::Ok) {
        std::fprintf(stderr, "FAIL: MatchService call returned %s\n",
                     serve::opStatusName(st));
        std::exit(1);
    }
}

/**
 * Open @p spans.size() streams on @p service's tenant, feed them
 * together in kRoundBytes rounds (one feedMany per round), close them,
 * and return each stream's reports.
 */
std::vector<ReportList>
serveBatch(serve::MatchService &service, const std::string &tenant,
           const std::vector<std::span<const uint8_t>> &spans)
{
    const size_t b = spans.size();
    std::vector<ReportList> reports(b);
    for (size_t i = 0; i < b; ++i)
        require(service.open(tenant, i));
    std::vector<serve::FeedEntry> entries;
    std::vector<serve::ReportGroup> groups;
    for (size_t off = 0;; off += kRoundBytes) {
        entries.clear();
        for (size_t i = 0; i < b; ++i) {
            if (off < spans[i].size())
                entries.push_back(
                    {i, spans[i].subspan(
                            off, std::min(kRoundBytes,
                                          spans[i].size() - off))});
        }
        if (entries.empty())
            break;
        require(service.feedMany(tenant, entries, &groups));
        for (serve::ReportGroup &g : groups)
            reports[g.streamId].insert(reports[g.streamId].end(),
                                       g.reports.begin(),
                                       g.reports.end());
    }
    for (size_t i = 0; i < b; ++i) {
        serve::ReportGroup tail;
        require(service.close(tenant, i, &tail));
        reports[i].insert(reports[i].end(), tail.reports.begin(),
                          tail.reports.end());
    }
    return reports;
}

/**
 * One table row per stream count B: sequential service (B dedicated
 * sessions run back to back) vs the same streams through one
 * MatchService tenant, aggregate MB/s each, plus the per-stream digest
 * gate against whole-input Engine::run.
 * @return false when any stream's digest diverges.
 */
bool
runCase(const BenchCase &bc, Table *table, bool *any_speedup_ok)
{
    SessionConfig config;
    config.mode = bc.mode;
    config.inputSkip = globalOptions().inputSkip;

    bool all_match = true;
    for (size_t b : kStreamCounts) {
        std::vector<std::span<const uint8_t>> spans;
        size_t total_bytes = 0;
        for (size_t i = 0; i < b; ++i) {
            spans.emplace_back(bc.streams[i]);
            total_bytes += bc.streams[i].size();
        }

        // Sequential service: the same B streams, one at a time, each
        // through a dedicated session over the shared automaton.
        const double seq_s = bestSeconds(3, [&] {
            for (size_t i = 0; i < b; ++i) {
                EngineSession session(*bc.fa, config);
                session.restart();
                session.feed(spans[i]);
                if (session.reports().size() == SIZE_MAX)
                    std::abort(); // defeat dead-code elimination
            }
        });

        // The tenant shares the case's automaton without owning it.
        serve::MatchService service;
        service.addTenant(
            bc.label,
            std::shared_ptr<const FlatAutomaton>(
                bc.fa, [](const FlatAutomaton *) {}),
            config);
        std::vector<ReportList> results;
        const double batch_s = bestSeconds(3, [&] {
            results = serveBatch(service, bc.label, spans);
        });

        // Chunked-vs-whole gate on the timed results.
        bool match = true;
        for (size_t i = 0; i < b; ++i) {
            Engine engine(*bc.fa, bc.mode);
            const uint64_t want = sortedDigest(
                engine.run(spans[i]).reports);
            if (sortedDigest(results[i]) != want)
                match = false;
        }
        all_match = all_match && match;

        const double seq_mbs = total_bytes / seq_s / 1e6;
        const double batch_mbs = total_bytes / batch_s / 1e6;
        const double speedup = seq_s / batch_s;
        if (b == 16 && speedup >= 1.3)
            *any_speedup_ok = true;
        table->addRow({bc.label, engineModeName(bc.mode),
                       std::to_string(b),
                       std::to_string(bc.streams[0].size() / 1024),
                       Table::fmt(seq_mbs, 1), Table::fmt(batch_mbs, 1),
                       Table::fmt(speedup, 2),
                       match ? "ok" : "MISMATCH"});
    }
    return all_match;
}

/** B streams drawn from one workload's input generator. */
std::vector<std::vector<uint8_t>>
makeStreams(const Workload &w, size_t bytes, Rng &rng)
{
    size_t len = bytes;
    if (w.inputBytesCap > 0)
        len = std::min(len, w.inputBytesCap);
    std::vector<std::vector<uint8_t>> streams;
    const size_t b = *std::max_element(std::begin(kStreamCounts),
                                       std::end(kStreamCounts));
    streams.reserve(b);
    for (size_t i = 0; i < b; ++i)
        streams.push_back(synthesizeInput(w.input, len, rng));
    return streams;
}

} // namespace

int
main()
{
    printSection("Multi-stream batch throughput (aggregate bytes/sec)");
    static ExperimentRunner runner;
    Table table({"App", "Mode", "Streams", "KiB/stream", "Seq MB/s",
                 "Batch MB/s", "Speedup", "Match"});

    bool all_match = true;
    bool any_speedup_ok = false;
    Rng rng(20180621);

    // Rule sets whose automata determinize at test scale: the DFA rows
    // where the fused interleave carries the batch win.
    std::vector<BenchCase> cases;
    std::vector<std::unique_ptr<FlatAutomaton>> owned;
    for (const char *abbr : {"Bro217", "Brill", "EM", "LV"}) {
        Workload w = generateWorkload(abbr, 7, 5);
        owned.push_back(std::make_unique<FlatAutomaton>(w.app));
        if (owned.back()->ensureHotDfa() == nullptr) {
            std::fprintf(stderr, "%s: no DFA at test scale, skipped\n",
                         abbr);
            owned.pop_back();
            continue;
        }
        BenchCase bc;
        bc.label = std::string(abbr) + "@5%";
        bc.mode = EngineMode::Dfa;
        bc.fa = owned.back().get();
        bc.streams = makeStreams(w, 64 * 1024, rng);
        cases.push_back(std::move(bc));
    }

    // Full-scale workloads on the auto-resolved NFA cores: batching
    // must break even here (the rotation is a scheduling change).
    for (const char *abbr : {"Snort", "HM"}) {
        const LoadedApp &app = runner.load(abbr);
        BenchCase bc;
        bc.label = abbr;
        bc.mode = EngineMode::Auto;
        bc.fa = &app.flat();
        const size_t len = std::min<size_t>(app.input.size(), 32768);
        const size_t b = *std::max_element(std::begin(kStreamCounts),
                                           std::end(kStreamCounts));
        for (size_t i = 0; i < b; ++i) {
            // Rotate the shared input so streams are distinct.
            std::vector<uint8_t> s(len);
            for (size_t j = 0; j < len; ++j)
                s[j] = app.input[(j + i * 97) % app.input.size()];
            bc.streams.push_back(std::move(s));
        }
        cases.push_back(std::move(bc));
    }

    for (const BenchCase &bc : cases)
        all_match = runCase(bc, &table, &any_speedup_ok) && all_match;

    runner.printTable(table);

    if (!all_match) {
        std::fprintf(stderr, "FAIL: batch reports diverged from "
                             "whole-input Engine::run\n");
        return 1;
    }
    if (!any_speedup_ok)
        std::fprintf(stderr, "note: no case reached 1.3x at B=16 on "
                             "this host\n");
    return 0;
}
