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
 * A lookahead step on such a symbol reports nothing, expands no latched
 * state, walks no dynamic state and filters every successor it meets:
 * it is a filtered step that leaves no trace, and changes only the
 * epoch. The caller skips it (EngineSession counts it in
 * SessionStats::quietSteps). The epoch may stand still because the only
 * marks equal to the upcoming epoch are the dynamic list's, which is
 * empty, so every mark is older whether the step runs or not. The test
 * needs the next byte, so a chunk's last symbol still steps, without
 * lookahead, and saveState() only ever sees complete lists.
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
    /** step()'s @p next when the caller does not know the next byte. */
    static constexpr int kNoLookahead = -1;

    /**
     * @param report_ids the id each state reports under (one per state
     *        of @p fa); empty: its own id. The split's cold core steps a
     *        merged automaton and reports original ids through it. Kept
     *        by reference, like @p fa: both must outlive the core.
     */
    explicit ExecCore(const FlatAutomaton &fa,
                      std::span<const GlobalStateId> report_ids = {});

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
     */
    void step(uint8_t symbol, uint64_t position, ReportList *reports,
              int next = kNoLookahead);

    /**
     * True when step(@p symbol, ..., @p next) would change nothing but
     * the epoch, so the caller may skip it (see the file comment). Inline:
     * a quiet symbol costs its caller no call.
     */
    bool
    quiet(uint8_t symbol, uint8_t next) const
    {
        return enabled_.empty() && latched_reporting_.empty() &&
               latched_pending_.empty() && pending_permanent_.empty() &&
               profiler_ == nullptr && !perm_next_[symbol].test(next);
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
     *  exact, per bucket. */
    struct Dispatch
    {
        GlobalStateId state;
        uint64_t successorFold;
    };

    template <bool kLookahead>
    void stepWith(uint8_t symbol, uint64_t position, ReportList *reports,
                  uint8_t next);
    template <bool kLookahead>
    void activate(GlobalStateId s, uint64_t position, ReportList *reports,
                  uint8_t next);
    template <bool kLookahead>
    void enableForNext(GlobalStateId t, uint8_t next);
    void makePermanent(GlobalStateId s);
    bool universal(GlobalStateId s) const;

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
