/**
 * @file
 * Shared cycle-stepping core for the BaseAP functional engine and the
 * SpAP-mode engine.
 *
 * Semantics are the plain AP model (enabled -> activated -> successors
 * enabled), with one pure optimization for `.*`-heavy automata:
 *
 *  - A state is *universal* (w.r.t. one input stream) when its symbol-set
 *    contains every distinct byte of that stream: once enabled it
 *    activates on every remaining cycle.
 *  - A universal state that re-enables itself (self-loop) or that is an
 *    always-enabled start is therefore *latched*: permanently enabled and
 *    permanently activating. Its successors become *permanently enabled*
 *    and are served from a per-symbol dispatch table instead of being
 *    re-inserted into the dynamic enabled set every cycle.
 *
 * This collapses the per-cycle cost of self-loop gap states (SPM, Fermi,
 * Dotstar `.*` positions) from O(live gap states) to O(actual matches),
 * without changing a single report. Property tests pit this core against
 * an independent naive simulator.
 *
 * Next-symbol lookahead. On the paper's fabric an enabled STE that does
 * not match costs nothing; here each costs a list entry and a cache
 * miss. A caller that knows the byte after the current one passes it to
 * step(), which then enqueues only the successors that byte can
 * activate, plus any that latch (a latching state is universal, so it
 * accepts the byte anyway; the filter tests the one-byte self-loop flag
 * before the 32-byte universality check). Each permanent-dispatch entry
 * carries a 64-bit fold of its successors' symbol sets (bit b & 63), so
 * an activated post-gap literal none of whose successors can take the
 * next byte costs one word test and never touches the successor CSR.
 * A filtered state leaves no trace: no epoch mark, no list entry. A
 * caller that skips step() (below) does not advance the epoch, and a
 * stale mark would silently drop a later enableState() of the same
 * state. The states dropped are exactly those that would not activate
 * on the next symbol, so the surviving enabled list is a subsequence of
 * the unfiltered one: activations, their order and the reports are
 * unchanged.
 *
 * Two-symbol lookahead. A caller that also knows the byte after next
 * (s[j+2] at step j) passes it too, to a core built with
 * Lookahead::TwoSymbols. A successor t is then enqueued only when it
 * latches, or when it accepts s[j+1] and its continuation fold C(t)
 * (FlatAutomaton::continuationFolds) holds s[j+2]. C(t) folds t's
 * successors' symbol sets, and is all ones when t reports or a
 * successor of t has a self-loop. A dropped t would fire on s[j+1] and
 * then step with s[j+2] as its lookahead, and that step would report
 * nothing (t does not report), promote nothing (no successor latches:
 * latching needs a self-loop) and enqueue nothing (no successor accepts
 * s[j+2]). So dropping it leaves no trace, by the next-symbol argument
 * one step earlier, and the surviving list is again a subsequence of
 * the unfiltered one. The self-loop rule stands in for latching:
 * latching depends on the stream's alphabet and a self-loop does not,
 * so one fold per automaton serves every alphabet. Each dispatch entry
 * also carries secondFold, the OR of its successors' C(t) (all ones
 * when it reports or has a latching successor), tested after its
 * successorFold.
 *
 * Quiet steps. Behind a latched `.*` gap most symbols change nothing:
 * the gap keeps its successors dispatched, and none of those the symbol
 * fires has a successor that takes the next byte. quiet(symbol, next)
 * proves this before the step is paid for. It holds when
 *  - the dynamic list is empty;
 *  - the latched-reporting list and both pending lists are empty;
 *  - no profiler is attached;
 *  - the next byte is outside perm_next_[symbol], the union of the
 *    successor symbol sets of the permanent entries accepting the
 *    symbol (all 256 bytes once one of them reports or has a latching
 *    successor: the exact set behind each entry's fold).
 * quiet(symbol, next, next2) also holds, under the same list
 * conditions, when next2's bit is clear in perm_fold2_[symbol], the OR
 * of the bucket's secondFolds: the two-symbol step would skip every
 * entry. Either way the step reports nothing, expands no latched
 * state, walks no dynamic state and filters every successor it meets:
 * it is a filtered step that leaves no trace, and changes only the
 * epoch. The caller skips it (EngineSession counts it in
 * SessionStats::quietSteps). The epoch may stand still because the only
 * marks equal to the upcoming epoch are the dynamic list's, which is
 * empty, so every mark is older whether the step runs or not.
 *
 * The chunk's tail. A two-symbol step at j relies on step j + 1
 * filtering with s[j+2], so callers step with two symbols only while
 * j + 2 < n, with one at j + 2 == n, and with none on a chunk's last
 * symbol, where the stream may suspend.
 *
 * Invariant: lists built by a filtered step are incomplete, so
 * snapshotEnabled() and saveState() may only see lists built by
 * unfiltered steps. EngineSession steps the last symbol of every chunk
 * (where it suspends) without lookahead, so suspend and resume stay
 * exact. Measured work stays unfiltered too: the core decision
 * (FlatAutomaton::decideCore) and SpAP's in-run handover weigh
 * lastStepWork() against the dense core's cost. SpAP mode
 * (runSpapMode) steps without lookahead because its idle()/jump
 * decisions are simulated statistics of the fabric, and
 * a run with a HotStateProfiler attached ignores the lookahead because
 * a profile records every *enabled* state, filtered or not.
 *
 * Epochs. A step marks the states it enqueues with the upcoming epoch
 * and compares marks for equality, so the 32-bit counter must never
 * reach the value a never-enabled state carries (0). Before a step
 * would mark with 0, the core clears every mark and renumbers the
 * upcoming dynamic list as epoch 1.
 */

#ifndef SPARSEAP_SIM_EXEC_CORE_H
#define SPARSEAP_SIM_EXEC_CORE_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/flat_automaton.h"
#include "sim/report.h"

namespace sparseap {

class HotStateProfiler;

/** Reusable stepping core bound to one FlatAutomaton. */
class ExecCore
{
  public:
    /** step()'s @p next or @p next2 when the caller does not know it. */
    static constexpr int kNoLookahead = -1;

    /** How far step() may look ahead (see the file comment). */
    enum class Lookahead : uint8_t {
        /** The next byte at most; @p next2 is ignored. */
        OneSymbol,
        /** Also the byte after next: reset() without a profiler fetches
         *  the automaton's continuation folds. */
        TwoSymbols,
    };

    /**
     * @param report_ids the id each state reports under (one per state
     *        of @p fa); empty: its own id. The split's cold core steps a
     *        merged automaton and reports original ids through it. Kept
     *        by reference, like @p fa: both must outlive the core.
     */
    explicit ExecCore(const FlatAutomaton &fa,
                      std::span<const GlobalStateId> report_ids = {},
                      Lookahead lookahead = Lookahead::OneSymbol);

    /** The automaton this core steps. */
    const FlatAutomaton &automaton() const { return fa_; }

    /**
     * Prepare for a run over a stream whose distinct bytes are
     * @p input_alphabet. Clears all dynamic and permanent state, then
     * installs the always-enabled starts (all-input kind) as permanent
     * and the start-of-data starts as enabled for the first cycle.
     *
     * @param profiler optional hot-state recorder
     * @param install_starts when false, start states are NOT installed
     *        (SpAP mode: the cold fabric is driven by events only)
     */
    void reset(const Bitset256 &input_alphabet,
               HotStateProfiler *profiler, bool install_starts);

    /**
     * Enable @p s for the next step() call (an SpAP enable operation or
     * internal successor enabling). Idempotent; no-op when the state is
     * already permanently enabled.
     */
    void enableState(GlobalStateId s);

    /** True iff no state is enabled (dynamic or permanent). */
    bool
    idle() const
    {
        return enabled_.empty() && permanent_count_ == 0 &&
               latched_pending_.empty();
    }

    /**
     * Consume one input symbol.
     * @param symbol the byte at this position
     * @param position global stream position (for report records)
     * @param reports destination for reports emitted this cycle
     * @param next the byte at position + 1 when the caller knows it:
     *        only the successors it can activate (or that latch) are
     *        enqueued. The enabled list is then incomplete until the next
     *        step (see the file comment); ignored while a profiler is
     *        attached.
     * @param next2 the byte at position + 2 when the caller knows it and
     *        will step position + 1 with it as @p next: a successor is
     *        enqueued only if its continuation fold holds it too (or it
     *        latches). Ignored without @p next or Lookahead::TwoSymbols.
     */
    void step(uint8_t symbol, uint64_t position, ReportList *reports,
              int next = kNoLookahead, int next2 = kNoLookahead);

    /**
     * True when step(@p symbol, ..., @p next) would change nothing but
     * the epoch, so the caller may skip it (see the file comment). Inline:
     * a quiet symbol costs its caller no call.
     */
    bool
    quiet(uint8_t symbol, uint8_t next) const
    {
        return onlyDispatchActs() && !perm_next_[symbol].test(next);
    }

    /** quiet() for step(@p symbol, ..., @p next, @p next2). */
    bool
    quiet(uint8_t symbol, uint8_t next, uint8_t next2) const
    {
        return onlyDispatchActs() && (!perm_next_[symbol].test(next) ||
                                      !foldHolds(perm_fold2_[symbol], next2));
    }

    /** Compute the set of distinct bytes in @p input. */
    static Bitset256 distinctBytes(std::span<const uint8_t> input);

    /**
     * Work this core paid for the most recent step(): states dispatched
     * from the permanent symbol table plus dynamic enabled states
     * walked. Latched states cost nothing per cycle and are excluded —
     * this is the honest sparse-cost measure the engine's density
     * heuristic weighs against the dense core's fixed word-sweep cost.
     */
    size_t lastStepWork() const { return last_step_work_; }

    /**
     * Append every state enabled for the upcoming step to @p out:
     * the dynamic enabled set plus all permanently-enabled (latched or
     * dispatched) states. Together with the plain AP semantics this is
     * the complete execution state, so the dense core can take over an
     * in-flight run from this snapshot.
     */
    void snapshotEnabled(std::vector<GlobalStateId> *out) const;

    /**
     * Portable execution state between two step() calls, captured by
     * saveState() and replayed by restoreState() — the suspend/resume
     * backbone of sim/session.h. Unlike snapshotEnabled (a flat set for
     * the dense core, which is insensitive to order), the sparse core's
     * within-position report order depends on its internal list orders,
     * so the snapshot keeps the dynamic states in list order and the
     * permanently-enabled states in promotion order; replaying them in
     * those orders (against the same input alphabet) reproduces the
     * dispatch buckets, the latched-reporting order and therefore a
     * byte-identical continuation.
     */
    struct Snapshot
    {
        /** Dynamically enabled states for the upcoming step, in list
         *  order. Never contains permanently-enabled states. */
        std::vector<GlobalStateId> dynamic;
        /** Permanently-enabled (Permanent or Latched) states in the
         *  order they were promoted. */
        std::vector<GlobalStateId> permanent;
    };

    /** Capture the live state between steps into @p out (cleared). */
    void saveState(Snapshot *out) const;

    /**
     * Rebuild the state captured by saveState(): resets (without start
     * installation) and replays the promotions and dynamic enables in
     * snapshot order. @p input_alphabet must be the alphabet of the
     * original run — universality (and so the Permanent/Latched split)
     * is a function of it.
     */
    void restoreState(const Bitset256 &input_alphabet,
                      const Snapshot &snap);

    /**
     * Test hook: renumber the upcoming step as @p epoch (in [1, 2^32 -
     * 2]), keeping the dynamic list, so a test reaches the 32-bit wrap
     * without stepping 2^32 symbols.
     */
    void setEpochForTesting(uint32_t epoch);

  private:
    enum class Status : uint8_t {
        Normal,    ///< ordinary dynamic state
        Permanent, ///< permanently enabled, dispatched by symbol
        Latched,   ///< permanently enabled and universal
    };

    /** One permanent-dispatch entry: the state and the 64-bit fold
     *  (bit b & 63) of its successors' symbol sets; all ones for a
     *  reporting state, which must activate to report, and for one
     *  with a latching successor. perm_next_ keeps the same sets
     *  exact, per bucket. secondFold is the OR of the successors'
     *  continuation folds, all ones in the same two cases (and while
     *  the core has no folds). */
    struct Dispatch
    {
        GlobalStateId state;
        uint64_t successorFold;
        uint64_t secondFold;
    };

    /** Bit @p byte & 63 of the 64-bit fold @p fold. */
    static bool
    foldHolds(uint64_t fold, uint8_t byte)
    {
        return (fold >> (byte & 63)) & 1;
    }

    /** Nothing but the dispatch table can act on the upcoming step:
     *  the dynamic, latched-reporting and pending lists are empty and
     *  no profiler is attached. */
    bool
    onlyDispatchActs() const
    {
        return enabled_.empty() && latched_reporting_.empty() &&
               latched_pending_.empty() && pending_permanent_.empty() &&
               profiler_ == nullptr;
    }

    /** kDepth: the symbols of lookahead the step uses (0, 1 or 2). */
    template <int kDepth>
    void stepWith(uint8_t symbol, uint64_t position, ReportList *reports,
                  uint8_t next, uint8_t next2);
    template <int kDepth>
    void activate(GlobalStateId s, uint64_t position, ReportList *reports,
                  uint8_t next, uint8_t next2);
    template <int kDepth>
    void enableForNext(GlobalStateId t, uint8_t next, uint8_t next2);
    void makePermanent(GlobalStateId s);
    bool universal(GlobalStateId s) const;
    /** Clear every mark and mark the dynamic list with @p epoch. */
    void renumberEpoch(uint32_t epoch);

    GlobalStateId
    reportId(GlobalStateId s) const
    {
        return report_ids_.empty() ? s : report_ids_[s];
    }

    bool
    hasSelfLoop(GlobalStateId s) const
    {
        return self_loop_[s] != 0;
    }

    /** Universal with a self-loop: permanent from its first enable.
     *  The one-byte flag goes first; universal() loads 32 bytes. */
    bool
    latches(GlobalStateId s) const
    {
        return hasSelfLoop(s) && universal(s);
    }

    void expandLatched();
    void flushPending();

    const FlatAutomaton &fa_;
    std::span<const GlobalStateId> report_ids_;
    const Lookahead lookahead_;
    /** The automaton's continuation folds once a TwoSymbols core has
     *  been reset without a profiler; empty until then. */
    std::span<const uint64_t> continuation_;
    Bitset256 input_alphabet_;
    HotStateProfiler *profiler_ = nullptr;

    /** Per-state self-loop flag, precomputed so enableForNext of a
     *  universal state doesn't re-scan its CSR successor list. */
    std::vector<uint8_t> self_loop_;

    std::vector<Status> status_;
    std::vector<uint32_t> mark_;
    uint32_t epoch_ = 0; ///< epoch of the *upcoming* step
    std::vector<GlobalStateId> enabled_;      ///< dynamic, for next step
    std::vector<GlobalStateId> next_enabled_; ///< scratch

    /** Permanent non-universal states accepting each symbol. */
    std::array<std::vector<Dispatch>, 256> perm_table_;
    /** Per bucket, the next bytes one of its entries can act on: the
     *  union of their successor sets (every byte for an entry that
     *  reports or has a latching successor). quiet() tests it. */
    std::array<Bitset256, 256> perm_next_;
    /** Per bucket, the OR of its entries' secondFolds. quiet() tests
     *  it against the byte after next. */
    std::array<uint64_t, 256> perm_fold2_{};
    size_t permanent_count_ = 0;
    /** Every permanently-enabled state (Permanent or Latched), in the
     *  order it was promoted — so snapshotEnabled doesn't scan all N
     *  states for non-normal status on every handover. */
    std::vector<GlobalStateId> permanent_states_;

    /** Latched states whose successors still need permanence. */
    std::vector<GlobalStateId> latched_pending_;
    /** Latched reporting states: they report on every remaining cycle. */
    std::vector<GlobalStateId> latched_reporting_;

    /** States scheduled to become permanent after the current step. */
    std::vector<GlobalStateId> pending_permanent_;

    size_t last_step_work_ = 0;
};

} // namespace sparseap

#endif // SPARSEAP_SIM_EXEC_CORE_H
