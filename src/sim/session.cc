#include "sim/session.h"

#include <algorithm>

#include "common/logging.h"
#include "common/vec.h"
#include "sim/dense_core.h"
#include "sim/engine.h"
#include "sim/hot_dfa.h"
#include "sim/profiler.h"
#include "telemetry/metrics.h"

namespace sparseap {

namespace {

/**
 * DFA skip-gate tuning, shared with the whole-input path (which is this
 * path — Engine delegates here). Scanning only pays when quiescent runs
 * are long enough to amortize the per-byte mask check, so the gate
 * reassesses the average jump length every kAdaptJumps jumps and stops
 * scanning below break-even. Chunk boundaries clip individual scans, so
 * a chunked stream's gate trajectory (and skip counters) can differ
 * from a whole-input run's — reports never do.
 */
constexpr uint64_t kAdaptJumps = 64;
constexpr uint64_t kMinBytesPerJump = 4;

void
countChunks(uint64_t n)
{
    static telemetry::Counter chunks("session.chunks");
    chunks.add(n);
}

/**
 * Step @p core on chunk[j] at stream position @p position, or not at
 * all when it proves the step quiet: with two symbols of lookahead while
 * j + 2 < n, one at j + 2 == n, and none on the chunk's last symbol,
 * where the stream may suspend (sim/exec_core.h). Forced inline: it is
 * the per-symbol body of the sparse and split loops.
 *
 * @return true when the step was skipped as quiet
 */
__attribute__((always_inline)) inline bool
stepSparse(ExecCore &core, std::span<const uint8_t> chunk, size_t j,
           uint64_t position, ReportList *reports)
{
    const size_t n = chunk.size();
    if (j + 2 < n) {
        if (core.quiet(chunk[j], chunk[j + 1], chunk[j + 2]))
            return true;
        core.step(chunk[j], position, reports, chunk[j + 1], chunk[j + 2]);
    } else if (j + 1 < n) {
        if (core.quiet(chunk[j], chunk[j + 1]))
            return true;
        core.step(chunk[j], position, reports, chunk[j + 1]);
    } else {
        core.step(chunk[j], position, reports);
    }
    return false;
}

} // namespace

EngineSession::EngineSession(const FlatAutomaton &fa)
    : EngineSession(fa, SessionConfig{})
{
}

EngineSession::EngineSession(const FlatAutomaton &fa, SessionConfig config)
    : fa_(fa), config_(config)
{
}

EngineSession::~EngineSession() = default;

const DenseCore *
EngineSession::denseCore() const
{
    return dense_.get();
}

void
EngineSession::ensureDense()
{
    if (!dense_)
        dense_ = std::make_unique<DenseCore>(fa_);
}

ExecCore &
EngineSession::sparseCore(const FlatAutomaton &fa,
                          std::span<const GlobalStateId> report_ids)
{
    if (!core_ || &core_->automaton() != &fa)
        core_ = std::make_unique<ExecCore>(fa, report_ids,
                                           ExecCore::Lookahead::TwoSymbols);
    return *core_;
}

EngineMode
EngineSession::resolvedMode() const
{
    switch (phase_) {
    case Phase::Sparse:
    case Phase::Undecided:
        return EngineMode::Sparse;
    case Phase::Dense:
        return EngineMode::Dense;
    case Phase::Dfa:
        return EngineMode::Dfa;
    case Phase::Split:
        return EngineMode::Split;
    }
    return EngineMode::Sparse; // unreachable
}

void
EngineSession::restart(HotStateProfiler *profiler)
{
    static telemetry::Counter streams("session.streams");
    streams.add(1);

    offset_ = 0;
    report_capacity_ = std::max(report_capacity_, reports_.size());
    reports_.clear();
    reports_.reserve(report_capacity_);
    stats_ = SessionStats{};
    dfa_state_ = 0;
    dfa_scanning_ = true;
    skip_base_symbols_ = 0;
    skip_base_jumps_ = 0;

    // Profiling needs the per-state enable hooks only the sparse core
    // has; profile prefixes are short.
    if (profiler)
        profiler->markStarts(fa_);
    startCore(profiler ? EngineMode::Sparse : config_.mode, profiler);
}

void
EngineSession::startCore(EngineMode mode, HotStateProfiler *profiler)
{
    SPARSEAP_ASSERT(mode != EngineMode::Split,
                    "split is a resolved core, not a configured mode");
    // Auto never switches a stream's core: a built DFA, a built split,
    // the decided automaton's table, the verdict's plain core, or — on
    // an undecided automaton — the first chunk's say (feed()).
    if (mode == EngineMode::Auto) {
        if ((dfa_ = fa_.hotDfaIfBuilt())) {
            phase_ = Phase::Dfa;
            return;
        }
        if ((dfa_ = fa_.splitIfBuilt())) {
            startSplit();
            return;
        }
        const std::optional<CoreDecision> d = fa_.coreDecision();
        if (!d && fa_.size() >= Engine::kMinDenseStates) {
            phase_ = Phase::Undecided;
            return;
        }
        if (d && (dfa_ = fa_.decidedTable())) {
            if (d->dense)
                phase_ = Phase::Dfa;
            else
                startSplit();
            return;
        }
        mode = d && d->dense ? EngineMode::Dense : EngineMode::Sparse;
    }
    // Pinned dfa determinizes (a bailout, logged by HotDfa::build, runs
    // dense).
    if (mode == EngineMode::Dfa && (dfa_ = fa_.ensureHotDfa())) {
        phase_ = Phase::Dfa;
        return;
    }
    if (mode == EngineMode::Dense || mode == EngineMode::Dfa) {
        ensureDense();
        dense_->reset(/*install_starts=*/true);
        phase_ = Phase::Dense;
        return;
    }
    sparseCore(fa_).reset(config_.alphabet, profiler,
                          /*install_starts=*/true);
    phase_ = Phase::Sparse;
}

void
EngineSession::startSplit()
{
    // The cold side steps the split's merged automaton and starts
    // empty: only the hot→cold enables (and the cold starts, state 0's
    // list) ever enable its states.
    ExecCore &cold = sparseCore(dfa_->coldAutomaton(), dfa_->originalIds());
    cold.reset(config_.alphabet, nullptr, /*install_starts=*/false);
    for (GlobalStateId s : dfa_->coldEnables(0))
        cold.enableState(s);
    phase_ = Phase::Split;
}

void
EngineSession::feedDense(std::span<const uint8_t> chunk)
{
    const size_t n = chunk.size();
    if (config_.inputSkip) {
        for (size_t i = 0; i < n; ++i) {
            i += dense_->trySkip(chunk.data() + i, n - i);
            if (i < n)
                dense_->step(chunk[i], offset_ + i, &reports_);
        }
    } else {
        for (size_t i = 0; i < n; ++i)
            dense_->step(chunk[i], offset_ + i, &reports_);
    }
    const DenseCore::StepStats &ds = dense_->stepStats();
    stats_.skippedSymbols = skip_base_symbols_ + ds.skippedSymbols;
    stats_.skipJumps = skip_base_jumps_ + ds.jumps;
    stats_.usedDenseCore = true;
}

template <bool kSplit>
void
EngineSession::feedTable(std::span<const uint8_t> chunk)
{
    const size_t n = chunk.size();
    const HotDfa &dfa = *dfa_;
    uint32_t state = dfa_state_;
    uint64_t quiet = 0;
    // One symbol: the table step and its reports, then — split only —
    // the cold core's step (a no-op while idle, so skipped) by
    // stepSparse's lookahead and quiet rules; then the new DFA state's
    // hot→cold enables for the next symbol. The cold core steps the
    // merged automaton and emits its reports under original ids
    // (sparseCore). Hot reports precede cold ones within a position.
    // Forced inline: an outlined call keeps `state` in memory and costs
    // the DFA loop ~10%.
    auto step = [&](size_t j) __attribute__((always_inline)) {
        state = dfa.next(state, chunk[j]);
        for (GlobalStateId id : dfa.reportsOf(state))
            reports_.push_back({offset_ + j, id});
        if constexpr (kSplit) {
            if (!core_->idle())
                quiet += stepSparse(*core_, chunk, j, offset_ + j, &reports_);
            for (GlobalStateId s : dfa.coldEnables(state))
                core_->enableState(s);
        }
    };
    if (config_.inputSkip && dfa.anySkippable()) {
        // Quiescence-skip loop with the adaptive profitability gate;
        // the gate counters and the scanning flag persist across
        // chunks, so a long boring stream gives up scanning once, not
        // once per chunk. The split skips only while its cold core is
        // idle (a skippable state enables no cold state).
        const simd::Ops &ops = simd::ops();
        for (size_t i = 0; i < n; ++i) {
            const simd::ScanMask *m =
                dfa_scanning_ && (!kSplit || core_->idle())
                    ? dfa.skipMask(state)
                    : nullptr;
            if (m != nullptr && !m->test(chunk[i])) {
                const size_t skipped =
                    ops.scanForByteMask(chunk.data() + i, n - i, *m);
                stats_.skippedSymbols += skipped;
                ++stats_.skipJumps;
                i += skipped;
                if (i >= n)
                    break;
                if (stats_.skipJumps % kAdaptJumps == 0 &&
                    stats_.skippedSymbols <
                        stats_.skipJumps * kMinBytesPerJump)
                    dfa_scanning_ = false;
            }
            step(i);
        }
    } else {
        for (size_t i = 0; i < n; ++i)
            step(i);
    }
    dfa_state_ = state;
    stats_.quietSteps += quiet;
    (kSplit ? stats_.usedSplit : stats_.usedDfa) = true;
}

void
EngineSession::feed(std::span<const uint8_t> chunk)
{
    ++stats_.chunks;
    countChunks(1);
    const size_t n = chunk.size();

    // An undecided automaton's first chunk of kProbeCycles bytes decides
    // it, and the stream runs the verdict's plain core from symbol 0;
    // a shorter one runs sparse. Empty chunks resolve nothing.
    if (phase_ == Phase::Undecided && n != 0) {
        const std::optional<CoreDecision> d =
            fa_.decideCore(chunk, config_.alphabet);
        startCore(d && d->dense ? EngineMode::Dense : EngineMode::Sparse,
                  nullptr);
    }

    switch (phase_) {
    case Phase::Undecided:
        break;
    case Phase::Sparse: {
        ExecCore &core = *core_;
        uint64_t quiet = 0;
        for (size_t i = 0; i < n; ++i)
            quiet += stepSparse(core, chunk, i, offset_ + i, &reports_);
        stats_.quietSteps += quiet;
        break;
    }
    case Phase::Dense:
        feedDense(chunk);
        break;
    case Phase::Dfa:
        feedTable<false>(chunk);
        break;
    case Phase::Split:
        feedTable<true>(chunk);
        break;
    }

    offset_ += n;
    stats_.cycles = offset_;
}

ReportList
EngineSession::takeReports()
{
    report_capacity_ = std::max(report_capacity_, reports_.size());
    ReportList out = std::move(reports_);
    reports_ = ReportList();
    return out;
}

EngineSession::Snapshot
EngineSession::suspend() const
{
    static telemetry::Counter suspends("session.suspends");
    static telemetry::Counter snapshot_bytes("session.snapshot_bytes");
    suspends.add(1);

    Snapshot snap;
    snap.config = config_;
    snap.phase = static_cast<uint8_t>(phase_);
    snap.offset = offset_;
    snap.dfaState = dfa_state_;
    snap.dfaScanning = dfa_scanning_;
    snap.stats = stats_;
    switch (phase_) {
    case Phase::Sparse:
    case Phase::Split: // plus dfaState, the hot side
        if (core_) // null only before the first restart()
            core_->saveState(&snap.sparse);
        break;
    case Phase::Dense:
        dense_->snapshotEnabled(&snap.dense);
        break;
    case Phase::Undecided: // resumes as restart() would
    case Phase::Dfa:       // dfaState is the whole execution state
        break;
    }
    snapshot_bytes.add(snap.byteSize());
    return snap;
}

void
EngineSession::resume(const Snapshot &snap)
{
    config_ = snap.config;
    phase_ = static_cast<Phase>(snap.phase);
    offset_ = snap.offset;
    dfa_state_ = snap.dfaState;
    dfa_scanning_ = snap.dfaScanning;
    stats_ = snap.stats;
    reports_.clear();
    skip_base_symbols_ = 0;
    skip_base_jumps_ = 0;

    // An auto stream parked before its first symbol has no state to
    // carry: it resolves its core like restart(), on whatever the
    // automaton has built or decided since.
    if (config_.mode == EngineMode::Auto && offset_ == 0) {
        startCore(EngineMode::Auto, nullptr);
        return;
    }

    switch (phase_) {
    case Phase::Sparse:
        sparseCore(fa_).restoreState(config_.alphabet, snap.sparse);
        break;
    case Phase::Undecided:
        break; // only ever at offset 0, resolved above
    case Phase::Dense:
        ensureDense();
        dense_->reset(/*install_starts=*/false);
        dense_->seed(snap.dense);
        // The re-seeded core's StepStats restart at zero; carry the
        // stream's skip totals forward so stats stay monotone.
        skip_base_symbols_ = snap.stats.skippedSymbols;
        skip_base_jumps_ = snap.stats.skipJumps;
        break;
    case Phase::Dfa:
        // The table the stream ran on: a cache hit on the same
        // automaton, a deterministic rebuild on an equivalent one.
        dfa_ = fa_.ensureHotDfa();
        SPARSEAP_ASSERT(dfa_ != nullptr,
                        "resuming a DFA-phase stream requires the "
                        "automaton to determinize under the current "
                        "budgets");
        break;
    case Phase::Split:
        // Likewise through the split's one-shot slot, whose merge is as
        // deterministic as its BFS; the cold core replays its ordered
        // lists, which hold merged ids.
        dfa_ = fa_.ensureSplit();
        SPARSEAP_ASSERT(dfa_ != nullptr,
                        "resuming a split-phase stream requires the "
                        "automaton to split under the current budgets");
        sparseCore(dfa_->coldAutomaton(), dfa_->originalIds())
            .restoreState(config_.alphabet, snap.sparse);
        break;
    }
}

void
EngineSession::feedFused(std::span<EngineSession *const> sessions,
                         std::span<const std::span<const uint8_t>> chunks)
{
    SPARSEAP_ASSERT(sessions.size() == chunks.size(),
                    "feedFused: one chunk per session");
    const size_t b = sessions.size();
    if (b == 0)
        return;
    const HotDfa *dfa = sessions[0]->dfa_.get();
    for (size_t k = 0; k < b; ++k) {
        SPARSEAP_ASSERT(sessions[k]->phase_ == Phase::Dfa,
                        "feedFused: every session must be in the DFA "
                        "phase");
        SPARSEAP_ASSERT(sessions[k]->dfa_.get() == dfa,
                        "feedFused: every session must share one DFA");
    }
    countChunks(b);

    // Interleave in blocks of kMaxFused streams: per input symbol, one
    // table lookup per stream — kMaxFused independent dependency
    // chains in flight instead of one, with the table shared across
    // all of them. Report extraction stays per-stream and in-order, so
    // the output is byte-identical to per-session feeds.
    constexpr size_t kMaxFused = 64;
    uint32_t st[kMaxFused];
    const uint8_t *in[kMaxFused];
    for (size_t base = 0; base < b; base += kMaxFused) {
        const size_t m = std::min(kMaxFused, b - base);
        size_t fused_n = SIZE_MAX; // common prefix of this block
        for (size_t k = 0; k < m; ++k) {
            st[k] = sessions[base + k]->dfa_state_;
            in[k] = chunks[base + k].data();
            fused_n = std::min(fused_n, chunks[base + k].size());
        }
        for (size_t t = 0; t < fused_n; ++t) {
            for (size_t k = 0; k < m; ++k) {
                const uint32_t s = dfa->next(st[k], in[k][t]);
                st[k] = s;
                if (!dfa->reportsOf(s).empty()) {
                    EngineSession &sess = *sessions[base + k];
                    for (GlobalStateId id : dfa->reportsOf(s))
                        sess.reports_.push_back({sess.offset_ + t, id});
                }
            }
        }
        // Unequal chunk lengths: finish each stream's tail
        // individually.
        for (size_t k = 0; k < m; ++k) {
            EngineSession &sess = *sessions[base + k];
            const std::span<const uint8_t> chunk = chunks[base + k];
            uint32_t s = st[k];
            for (size_t t = fused_n; t < chunk.size(); ++t) {
                s = dfa->next(s, chunk[t]);
                for (GlobalStateId id : dfa->reportsOf(s))
                    sess.reports_.push_back({sess.offset_ + t, id});
            }
            sess.dfa_state_ = s;
            sess.offset_ += chunk.size();
            ++sess.stats_.chunks;
            sess.stats_.cycles = sess.offset_;
            sess.stats_.usedDfa = true;
        }
    }
}

} // namespace sparseap
