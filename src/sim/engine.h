/**
 * @file
 * Functional homogeneous-NFA engine (the VASim-equivalent substrate).
 *
 * Executes an automaton over a byte stream with the AP semantics: each
 * cycle, every enabled state whose symbol-set contains the input byte
 * *activates*; activation of a reporting state emits a report; successors
 * of activated states are *enabled* for the next cycle.
 *
 * Four interchangeable stepping cores implement these semantics
 * (property tests prove they emit identical report multisets):
 *
 *  - **sparse** (ExecCore): dynamic enabled list with the latched/
 *    permanent optimization — cost proportional to the live set. Wins
 *    when few states are live (Snort, ClamAV, Dotstar).
 *  - **dense** (DenseCore): bit-parallel word vectors — cost O(N/64)
 *    per cycle regardless of live-set size. Wins when the live set is a
 *    sizable fraction of the automaton (Hamming / Levenshtein grids).
 *  - **dfa** (HotDfa): capped subset-construction table — one lookup
 *    per symbol, independent of the live set. Wins when the automaton
 *    is small enough to determinize (the profiler's hot partitions);
 *    falls back to the dense core when the budget is exceeded.
 *  - **split** (HotDfa over the layer <= kSplitLayers states, plus
 *    ExecCore for the rest): the paper's hot/cold split on the CPU.
 *    The shallow states, where the traffic is (Fig. 5), take one
 *    lookup per symbol; each DFA state enables the deeper states its
 *    activated set reaches (Fig. 7's intermediate reports) on a
 *    sparse core that holds only them. Wins on large, sparse rule sets
 *    (Snort) whose whole automaton will not determinize. Auto only.
 *
 * The default *auto* mode decides the core once per automaton
 * (FlatAutomaton::decideCore): the sparse core's work over the first
 * kProbeCycles symbols of a calibration input, against the dense
 * core's word-sweep cost (see docs/PERFORMANCE.md). Every run starts on
 * its core at cycle 0 and never switches (sim/session.h has the order).
 * SPARSEAP_ENGINE=sparse|dense|dfa|auto overrides.
 */

#ifndef SPARSEAP_SIM_ENGINE_H
#define SPARSEAP_SIM_ENGINE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/options.h"
#include "sim/flat_automaton.h"
#include "sim/report.h"

namespace sparseap {

class DenseCore;
class EngineSession;
class ExecCore;
class HotDfa;
class HotStateProfiler;

/** Result of a functional run. */
struct SimResult
{
    /** Reports in nondecreasing position order. */
    ReportList reports;
    /** Symbols consumed (== input length for a plain run). */
    uint64_t cycles = 0;
    /**
     * Symbols consumed without stepping by the quiescence input skip
     * (SPARSEAP_INPUT_SKIP, see DenseCore::trySkip / HotDfa::skipMask);
     * stepped cycles are cycles - skippedSymbols. 0 when the skip is
     * off or never fired — reports are byte-identical either way.
     */
    uint64_t skippedSymbols = 0;
    /** Skip scans that advanced the cursor (SpAP's "jumps"). */
    uint64_t skipJumps = 0;
    /** True when (part of) the run executed on the dense core. */
    bool usedDenseCore = false;
    /** True when the run executed on the hot-DFA table. */
    bool usedDfa = false;
};

/**
 * Reusable engine over one FlatAutomaton. The engine owns scratch state
 * sized to the automaton, so reuse across runs avoids reallocation.
 */
class Engine
{
  public:
    /** Core selection from globalOptions().engineMode. */
    explicit Engine(const FlatAutomaton &fa);

    /** Core selection pinned to @p mode. */
    Engine(const FlatAutomaton &fa, EngineMode mode);

    ~Engine();

    /**
     * Run the whole input.
     * @param input the symbol stream
     * @param profiler optional hot-state recorder; profiling runs always
     *        use the sparse core, whose enable hooks feed the profiler
     */
    SimResult run(std::span<const uint8_t> input,
                  HotStateProfiler *profiler = nullptr);

    const FlatAutomaton &automaton() const { return fa_; }

    EngineMode mode() const { return mode_; }

    /**
     * The core the most recent run actually executed on — the
     * configured mode with auto/bailout resolution applied (Sparse or
     * Dense on the plain cores, Dfa on the table, Split on the hot/cold
     * split). Before the first run this is the configured mode's
     * default resolution.
     * SimResult's usedDenseCore/usedDfa flags carry the same
     * information per result; this accessor reads it off the engine
     * without threading the result around.
     */
    EngineMode resolvedMode() const;

    /**
     * Toggle the quiescence input skip for this engine (defaults to
     * globalOptions().inputSkip, i.e. SPARSEAP_INPUT_SKIP). Reports are
     * byte-identical in both settings; benches flip it to measure the
     * skip's contribution.
     */
    void setInputSkip(bool on) { skip_enabled_ = on; }

    /** True iff this engine's runs may use the input skip. */
    bool inputSkip() const { return skip_enabled_; }

    /** Auto-mode heuristic constants (documented in PERFORMANCE.md). */
    /** Calibration symbols the core decision steps on the sparse core. */
    static constexpr size_t kProbeCycles = 128;
    /**
     * The hot/cold split's layer cut: states at topological layer <=
     * kSplitLayers of their NFA run on the split's DFA, deeper states
     * on the sparse core (FlatAutomaton::ensureSplit).
     */
    static constexpr uint32_t kSplitLayers = 3;
    /**
     * Run dense when the sparse core's measured per-cycle work (dynamic
     * enabled states + dispatch-table matches) reaches this many units
     * per 64-state word — the point where the dense core's fixed sweep
     * is cheaper than the sparse core's pointer chasing.
     */
    static constexpr size_t kDenseWorkPerWord = 2;
    /** Never decide below this size: one word sweep covers it. */
    static constexpr size_t kMinDenseStates = 256;
    /**
     * Auto mode attempts determinization only for automata at most
     * this large (and only for a dense verdict): hot partitions
     * qualify, full rule-set automata — whose subset construction
     * would blow the budget anyway — skip the attempt entirely.
     */
    static constexpr size_t kMaxAutoDfaStates = 4096;

    /**
     * Sparse-core work over kProbeCycles symbols at which an automaton
     * of @p states runs dense: the dense core's fixed per-word sweep
     * cost over the same symbols.
     */
    static constexpr uint64_t
    denseWorkThreshold(size_t states)
    {
        return uint64_t{kProbeCycles} * kDenseWorkPerWord *
               wordsForBits(states);
    }

  private:
    const FlatAutomaton &fa_;
    EngineMode mode_;
    /**
     * The engine is a thin shell over a suspendable session
     * (sim/session.h): run() = restart + one whole-input feed. Cross-
     * run state — the dense core, report-capacity reuse — lives in the
     * session, so the chunked and whole-input paths are one
     * implementation.
     */
    std::unique_ptr<EngineSession> session_;
    bool skip_enabled_; ///< quiescence input skip (see setInputSkip)
};

} // namespace sparseap

#endif // SPARSEAP_SIM_ENGINE_H
