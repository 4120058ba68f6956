/**
 * @file
 * Suspendable engine sessions: chunked execution over one stream.
 *
 * Engine::run consumes a whole input in one call; a streaming match
 * service receives the same bytes as chunks that arrive over time and
 * must interleave many streams on one automaton. EngineSession is the
 * chunked form of Engine::run with the invariant the whole subsystem is
 * tested against:
 *
 *   restart(); feed(c0); feed(c1); ... feed(ck)
 *
 * produces a report stream *byte-identical* (same records, same order)
 * to one Engine::run over the concatenation c0+c1+...+ck — for every
 * pinned core and for auto on a decided automaton, every chunk
 * partition (including 1-byte chunks), with the quiescence input skip
 * on or off. On an undecided automaton only the sorted reports are
 * fixed. Report positions are 64-bit global stream offsets
 * (Report::position), so a long-lived stream never wraps.
 *
 * Auto runs one core per automaton, decided once from a calibration
 * input (FlatAutomaton::decideCore; DESIGN.md §9). restart() resolves
 * the stream's core in this order, and the stream never switches:
 *
 *  1. the automaton's whole DFA, when one is built;
 *  2. its hot/cold split, when one is built: the layer <=
 *     Engine::kSplitLayers states step as a DFA, and each DFA state
 *     enables its deeper states on the session's sparse core, bound to
 *     the split's prefix-merged automaton and reset without starts —
 *     the way SpAP drives its cold fabric;
 *  3. on a decided automaton, its table (FlatAutomaton::decidedTable),
 *     else the verdict's plain core;
 *  4. on an undecided one, the first chunk decides when it holds
 *     Engine::kProbeCycles bytes, and the stream runs the verdict's
 *     plain core from symbol 0, building nothing; a shorter one runs
 *     the stream sparse. Automata below Engine::kMinDenseStates always
 *     run sparse, undecided.
 *
 * suspend()/resume() capture the live execution state between chunks
 * into a portable Snapshot — the ordered sparse lists (ExecCore), the
 * dense live set (DenseCore), the DFA state, or the split's DFA state
 * plus its cold core's ordered lists — so a stream can be parked,
 * migrated to another EngineSession (or another process: the BFS
 * numbering of both DFAs is deterministic) and continued
 * byte-identically. The sparse core steps with the next two bytes as
 * lookahead wherever the chunk holds them, with the one next byte on
 * the chunk's second-to-last symbol, and not at all where
 * ExecCore::quiet() proves that step idle; the chunk's last symbol
 * steps without lookahead, so every snapshot sees complete lists
 * (sim/exec_core.h).
 *
 * Many streams share one automaton through MatchService::feedMany: the
 * streams of one request that run on the DFA table advance together via
 * feedFused; every other stream, split streams included, feeds on its
 * own (DESIGN.md §11).
 *
 * Engine is itself implemented on top of EngineSession (one restart +
 * one feed per run), so the chunked and whole-input paths cannot
 * drift. See DESIGN.md §10.
 */

#ifndef SPARSEAP_SIM_SESSION_H
#define SPARSEAP_SIM_SESSION_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitset256.h"
#include "common/options.h"
#include "sim/exec_core.h"
#include "sim/flat_automaton.h"
#include "sim/report.h"

namespace sparseap {

class DenseCore;
class HotDfa;
class HotStateProfiler;

/**
 * Per-session execution configuration, fixed at restart() time (except
 * inputSkip, which feed() re-reads so benches can flip it).
 */
struct SessionConfig
{
    /** Stepping-core selection (defaults to SPARSEAP_ENGINE). */
    EngineMode mode = globalOptions().engineMode;
    /** Quiescence input skip (defaults to SPARSEAP_INPUT_SKIP). */
    bool inputSkip = globalOptions().inputSkip;
    /**
     * Declared stream alphabet: the sparse core's latched/permanent
     * optimization treats a state as universal when its symbol-set
     * covers every byte that can occur. A whole-input run knows the
     * exact distinct-byte set; a stream does not, so the default is the
     * safe superset (every byte). Any superset of the bytes actually
     * fed preserves report *content*; matching Engine::run's
     * within-position report order byte-for-byte additionally requires
     * declaring the same alphabet Engine resolved (its input's distinct
     * bytes). Engine does exactly that when delegating here.
     */
    Bitset256 alphabet = Bitset256::all();
};

/** Per-stream accounting, zeroed by restart(). */
struct SessionStats
{
    /** feed() calls since restart (chunks consumed). */
    uint64_t chunks = 0;
    /** Symbols consumed so far, including skipped ones (== offset). */
    uint64_t cycles = 0;
    /** Symbols consumed without stepping by the input skip. */
    uint64_t skippedSymbols = 0;
    /** Skip scans that advanced the cursor. */
    uint64_t skipJumps = 0;
    /** Symbols whose sparse-core step ExecCore::quiet() proved idle
     *  from the next byte or the byte after, so it was skipped (sparse
     *  phase; the split's cold side). */
    uint64_t quietSteps = 0;
    /** True when the stream executed on the dense core. */
    bool usedDenseCore = false;
    /** True when the stream executed on the hot-DFA table. */
    bool usedDfa = false;
    /** True when the stream executed on the hot/cold split. */
    bool usedSplit = false;
};

/** Suspendable chunked execution of one stream over one automaton. */
class EngineSession
{
  public:
    /** Configuration from globalOptions() (SPARSEAP_ENGINE etc.). */
    explicit EngineSession(const FlatAutomaton &fa);

    EngineSession(const FlatAutomaton &fa, SessionConfig config);

    ~EngineSession();

    const FlatAutomaton &automaton() const { return fa_; }

    const SessionConfig &config() const { return config_; }

    /** Toggle the input skip (reports are identical either way). */
    void setInputSkip(bool on) { config_.inputSkip = on; }

    /** Declare the stream alphabet for the *next* restart(). */
    void setAlphabet(const Bitset256 &alphabet)
    {
        config_.alphabet = alphabet;
    }

    /**
     * Begin a new stream, reusing this session's allocations. Clears
     * reports and stats, resolves the stepping core for the stream
     * (auto: see the file comment; a decided automaton's table is
     * built here, once per automaton), and rewinds the global offset
     * to 0.
     *
     * @param profiler optional hot-state recorder; profiling streams
     *        are pinned to the sparse core (its enable hooks feed the
     *        profiler), like Engine::run.
     */
    void restart(HotStateProfiler *profiler = nullptr);

    /**
     * Consume the next chunk of the stream. Reports are appended to
     * reports() with positions offset by the bytes already consumed.
     */
    void feed(std::span<const uint8_t> chunk);

    /** Global stream offset: total bytes consumed since restart(). */
    uint64_t offset() const { return offset_; }

    /** Reports accumulated since restart()/takeReports(). */
    const ReportList &reports() const { return reports_; }

    /**
     * Move the accumulated reports out (drains the internal list).
     * Positions keep their global offsets; callers streaming chunk by
     * chunk take after every feed and concatenate.
     */
    ReportList takeReports();

    /**
     * The core this stream actually executes on: the configured mode
     * with auto/bailout resolution applied — Sparse or Dense on the
     * plain cores (Sparse too for an auto stream whose first chunk has
     * not arrived), Dfa on the table, Split on the hot/cold split.
     */
    EngineMode resolvedMode() const;

    const SessionStats &stats() const { return stats_; }

    /**
     * The session's dense core, or null when the stream never touched
     * it. Engine reads its per-run StepStats for telemetry.
     */
    const DenseCore *denseCore() const;

    /**
     * Portable between-chunk execution state (see suspend()). Does not
     * carry accumulated reports — drain them with takeReports() before
     * parking the stream.
     */
    struct Snapshot
    {
        SessionConfig config;
        /** Resolved execution phase (internal Phase value). */
        uint8_t phase = 0;
        uint64_t offset = 0;
        /** Ordered sparse-core state (sparse phase; the split's cold
         *  core, in its merged automaton's ids). */
        ExecCore::Snapshot sparse;
        /** Dense live set, ascending ids (dense phase). */
        std::vector<GlobalStateId> dense;
        /** Current DFA state (dfa and split phases). */
        uint32_t dfaState = 0;
        /** DFA skip-gate position: still scanning? */
        bool dfaScanning = true;
        SessionStats stats;

        /**
         * Bytes this snapshot occupies while parked: the fixed record
         * plus the heap behind the sparse lists and the dense live set.
         * The match service charges exactly this against its resident
         * budget (also counted as session.snapshot_bytes on suspend).
         */
        uint64_t byteSize() const
        {
            return sizeof(*this) +
                   (sparse.dynamic.capacity() +
                    sparse.permanent.capacity() + dense.capacity()) *
                       sizeof(GlobalStateId);
        }
    };

    /** Capture the live state between feeds (counts session.suspends). */
    Snapshot suspend() const;

    /**
     * Rebuild the state captured by suspend() — on this session or any
     * session over an equivalent automaton — and continue feeding
     * byte-identically. Accumulated reports are cleared. An auto
     * stream parked at offset 0 resolves its core afresh, as restart()
     * would.
     */
    void resume(const Snapshot &snap);

    /** True iff the stream is executing on the whole DFA table (a
     *  split stream is not: its cold core steps too). */
    bool dfaPhase() const { return phase_ == Phase::Dfa; }

    /**
     * Advance B same-phase DFA streams together, one symbol per stream
     * per rotation, so their B independent table-lookup chains overlap
     * in the memory pipeline instead of serializing (the fat-runtime
     * trick: a lone DFA stream is latency-bound on its own dependent
     * loads). Every session must be in the DFA phase on the same
     * automaton. Equivalent to sessions[k]->feed(chunks[k]) for every k
     * except that the input skip is not consulted (reports are
     * byte-identical; only skip counters differ).
     */
    static void feedFused(std::span<EngineSession *const> sessions,
                          std::span<const std::span<const uint8_t>> chunks);

  private:
    enum class Phase : uint8_t {
        Sparse,    ///< sparse core
        Undecided, ///< auto, undecided automaton, before the first byte
        Dense,     ///< dense core
        Dfa,       ///< hot-DFA table
        Split,     ///< split DFA table + cold sparse core
    };

    void ensureDense();
    /** core_, (re)bound to @p fa: the session's automaton for the
     *  sparse phase, the split's merged one, reporting under
     *  @p report_ids, for its cold side. Created on first use. */
    ExecCore &sparseCore(const FlatAutomaton &fa,
                         std::span<const GlobalStateId> report_ids = {});
    void startCore(EngineMode mode, HotStateProfiler *profiler);
    /** Start the split phase on dfa_ (the split): cold side empty. */
    void startSplit();
    void feedDense(std::span<const uint8_t> chunk);
    /** Step dfa_ (the DFA phase) or dfa_ plus the cold core (kSplit). */
    template <bool kSplit>
    void feedTable(std::span<const uint8_t> chunk);

    const FlatAutomaton &fa_;
    SessionConfig config_;
    Phase phase_ = Phase::Sparse;
    uint64_t offset_ = 0;
    ReportList reports_;
    SessionStats stats_;

    /** The sparse core (sparse phase; the split's cold side, on its
     *  merged automaton); see sparseCore(). */
    std::unique_ptr<ExecCore> core_;
    std::unique_ptr<DenseCore> dense_; ///< created on first dense use
    std::shared_ptr<const HotDfa> dfa_; ///< the DFA/split phase's table

    uint32_t dfa_state_ = 0;  ///< persistent DFA state across chunks
    bool dfa_scanning_ = true; ///< DFA skip gate not yet given up
    /** Skip totals carried over a resume (dense StepStats restart at
     *  zero when the core is re-seeded). */
    uint64_t skip_base_symbols_ = 0;
    uint64_t skip_base_jumps_ = 0;

    /** Largest report count seen: restart() reserves it up front. */
    size_t report_capacity_ = 0;
};

} // namespace sparseap

#endif // SPARSEAP_SIM_SESSION_H
