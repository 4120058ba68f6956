#include "sim/stream_batch.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/options.h"
#include "common/thread_pool.h"
#include "telemetry/metrics.h"

namespace sparseap {

StreamBatchRunner::StreamBatchRunner(const FlatAutomaton &fa)
    : StreamBatchRunner(fa, SessionConfig{})
{
}

StreamBatchRunner::StreamBatchRunner(const FlatAutomaton &fa,
                                     SessionConfig config)
    : fa_(fa), config_(config)
{
}

void
StreamBatchRunner::setQuantum(size_t symbols)
{
    quantum_ = std::max<size_t>(1, symbols);
}

std::vector<StreamResult>
StreamBatchRunner::run(
    std::span<const std::span<const uint8_t>> inputs) const
{
    return run(inputs, globalOptions().jobs);
}

std::vector<StreamResult>
StreamBatchRunner::run(std::span<const std::span<const uint8_t>> inputs,
                       unsigned jobs) const
{
    static telemetry::Counter batch_runs("batch.runs");
    static telemetry::Counter batch_streams("batch.streams");
    static telemetry::Gauge lane_occupancy("batch.lane_occupancy");

    const size_t b = inputs.size();
    std::vector<StreamResult> results(b);
    if (b == 0)
        return results;

    const size_t lanes =
        std::min<size_t>(std::max<unsigned>(jobs, 1u), b);
    batch_runs.add(1);
    batch_streams.add(b);
    // Streams sharing the busiest lane — the amortization factor the
    // cache-blocked rotation actually achieves.
    lane_occupancy.set(static_cast<int64_t>((b + lanes - 1) / lanes));

    parallelFor(lanes, lanes, [&](size_t lane) {
        runLane(lane, lanes, inputs, &results);
    });
    return results;
}

void
StreamBatchRunner::runLane(
    size_t lane, size_t lanes,
    std::span<const std::span<const uint8_t>> inputs,
    std::vector<StreamResult> *results) const
{
    // Deterministic lane membership: stream i -> lane i mod lanes.
    std::vector<size_t> streams;
    for (size_t i = lane; i < inputs.size(); i += lanes)
        streams.push_back(i);
    if (streams.empty())
        return;

    const size_t m = streams.size();
    std::vector<std::unique_ptr<EngineSession>> sessions;
    sessions.reserve(m);
    for (size_t k = 0; k < m; ++k) {
        sessions.push_back(
            std::make_unique<EngineSession>(fa_, config_));
        sessions.back()->restart();
    }

    // One automaton + one config: if the first session starts on the
    // DFA table, every later one does too (an automaton's DFA, once
    // built, stays built), so the lane runs the fused symbol
    // interleave; otherwise quantum rotation, which feeds any phase.
    // Mid-stream phase changes — auto handovers — happen per stream on
    // the NFA side and never enter the fused path.
    const bool fused = sessions[0]->dfaPhase();

    std::vector<size_t> cursor(m, 0);
    std::vector<EngineSession *> round_sessions;
    std::vector<std::span<const uint8_t>> round_chunks;
    std::vector<size_t> round_members;

    // Empty streams are finished before the first rotation (guard for
    // the degenerate all-empty batch: the loop below must not spin on
    // a round that consumes nothing). Their result slots still come
    // from a restarted session, so stats are zeroed, not stale.
    size_t live = m;
    for (size_t k = 0; k < m; ++k) {
        if (inputs[streams[k]].empty()) {
            cursor[k] = 1; // sentinel: counted done
            --live;
        }
    }
    while (live > 0) {
        if (fused) {
            // Collect this rotation's quantum for every unfinished
            // stream and step them together, one symbol per stream.
            round_sessions.clear();
            round_chunks.clear();
            round_members.clear();
            for (size_t k = 0; k < m; ++k) {
                const std::span<const uint8_t> in = inputs[streams[k]];
                if (cursor[k] >= in.size())
                    continue;
                const size_t take =
                    std::min(quantum_, in.size() - cursor[k]);
                round_sessions.push_back(sessions[k].get());
                round_chunks.push_back(in.subspan(cursor[k], take));
                round_members.push_back(k);
            }
            EngineSession::feedFused(
                std::span<EngineSession *const>(round_sessions),
                std::span<const std::span<const uint8_t>>(round_chunks));
            for (size_t j = 0; j < round_members.size(); ++j) {
                const size_t k = round_members[j];
                cursor[k] += round_chunks[j].size();
                if (cursor[k] >= inputs[streams[k]].size())
                    --live;
            }
        } else {
            for (size_t k = 0; k < m; ++k) {
                const std::span<const uint8_t> in = inputs[streams[k]];
                if (cursor[k] >= in.size())
                    continue;
                const size_t take =
                    std::min(quantum_, in.size() - cursor[k]);
                sessions[k]->feed(in.subspan(cursor[k], take));
                cursor[k] += take;
                if (cursor[k] >= in.size())
                    --live;
            }
        }
    }

    for (size_t k = 0; k < m; ++k) {
        StreamResult &slot = (*results)[streams[k]];
        slot.reports = sessions[k]->takeReports();
        slot.resolvedMode = sessions[k]->resolvedMode();
        slot.stats = sessions[k]->stats();
    }
}

} // namespace sparseap
