/**
 * @file
 * Bit-parallel dense stepping core.
 *
 * Where ExecCore walks a dynamic enabled list and probes one 256-bit
 * symbol set per live state per cycle, this core keeps the enabled set
 * as a ⌈N/64⌉-word bit vector and consumes one symbol with word sweeps:
 *
 *   active  = enabled & acceptRow(symbol)  |  starts matching symbol
 *   reports = active & reportingMask             (emit set bits)
 *   next    = OR of successor rows of active     (masked word shifts
 *             for the states on shift rows, ctz over the fan-out bits
 *             and the CSR word-at-a-time for the rest)
 *
 * Three structures keep those sweeps on the live part of the automaton:
 *
 *  - the accept row is selected through the flattener's byte→class map,
 *    so the table is #classes rows instead of 256 and the hot rows fit
 *    in cache even at 10⁵ states;
 *  - always-enabled start states never enter the dynamic enabled vector
 *    (their bits are pre-cleared from the successor CSR): the ones that
 *    match the current symbol activate straight from the flattener's
 *    per-class start dispatch list. Rule sets scatter thousands of
 *    start states across the id space — kept in the enabled vector they
 *    make every word permanently live;
 *  - the enabled set carries a two-level summary — bit w of the first
 *    level set iff enabled word w is nonzero, bit v of the second level
 *    set iff summary word v is nonzero — so the sweep visits only live
 *    words via ctz and a dead 4096-state block costs one word test.
 *
 * When the live fraction is high (grid automata: Hamming, Levenshtein,
 * Fermi), summary maintenance costs more than it skips, so step()
 * falls back to a flat SIMD-friendly linear sweep chosen per cycle from
 * a popcount of the summary — O(N/64) but with no per-word bookkeeping.
 *
 * Like the sparse core, the dense core latches universal self-loop
 * states: once enabled they activate forever, so rule-set `.*` gaps
 * would otherwise accumulate thousands of permanently-live scattered
 * bits and defeat the skip. Latched states move to a permanent set
 * whose pooled successor contribution is ORed into next wholesale (see
 * perm_next_ below). Both cores are property-tested to emit identical
 * report multisets.
 */

#ifndef SPARSEAP_SIM_DENSE_CORE_H
#define SPARSEAP_SIM_DENSE_CORE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/vec.h"
#include "common/word_vector.h"
#include "sim/flat_automaton.h"
#include "sim/report.h"

namespace sparseap {

/** Reusable bit-parallel stepping core bound to one FlatAutomaton. */
class DenseCore
{
  public:
    explicit DenseCore(const FlatAutomaton &fa);

    /**
     * Prepare for a run. When @p install_starts, start-of-data starts
     * are enabled for the first cycle and always-enabled starts are
     * served from the per-class dispatch on every cycle; otherwise the
     * core starts empty (SpAP-style external driving via seed()).
     */
    void reset(bool install_starts);

    /**
     * Enable @p states for the next step() call — SpAP's in-run
     * handover from the sparse core, and a parked stream's resume.
     * Always-enabled start states are skipped: they are implicitly
     * enabled through the start dispatch and must stay out of the
     * dynamic vector. Permanently-enabled sparse states need no special
     * treatment: once seeded, a universal self-loop state keeps itself
     * enabled through its own transitions.
     */
    void seed(std::span<const GlobalStateId> states);

    /** Enable one state for the next step() (an SpAP enable). */
    void
    seed(GlobalStateId state)
    {
        seed(std::span<const GlobalStateId>(&state, 1));
    }

    /** Consume one input symbol (see file comment for the sweep). */
    void step(uint8_t symbol, uint64_t position, ReportList *reports);

    /**
     * Append every live state — dynamically enabled plus latched
     * (permanent) — to @p out in ascending id order. Re-seeding a fresh
     * core (reset(false) + seed()) with this list reproduces a
     * byte-identical continuation: latched states are non-reporting by
     * construction and re-latch through their own transitions on the
     * first step, exactly like a sparse→dense handover seed. This is
     * the suspend path of sim/session.h.
     */
    void snapshotEnabled(std::vector<GlobalStateId> *out) const;

    /**
     * Input-dimension skip — the software form of the paper's SpAP jump
     * operation. When the configuration is *quiescent* (the dynamic
     * enabled set is exactly the latched states' pooled successor
     * contribution, i.e. stepping reproduces it until something new
     * fires), every input byte whose class cannot fire a reporting
     * start, activate a latched successor, or enable a state outside
     * the permanent machinery is a no-op: it emits nothing and leaves
     * the configuration bit-identical. This scans data[0..n) for the
     * first byte that can matter (simd::Ops::scanForByteMask over a
     * 256-bit mask — the automaton's static quiescent mask when nothing
     * is latched, a per-latch-generation widened mask otherwise) and
     * @return the number of leading bytes the caller may consume
     * without stepping (0 when not quiescent, the next byte is
     * interesting, or the mask is too dense to pay off). Skipped bytes
     * are accounted in StepStats::skippedSymbols/jumps, mirroring the
     * SpAP executor's counters.
     */
    size_t trySkip(const uint8_t *data, size_t n);

    /** True iff no state can activate on the next step. */
    bool idle() const;

    /**
     * Word view of the dynamically enabled set (always-enabled starts
     * excluded — consumers that need them covered mark them once up
     * front, they are enabled on every cycle by definition). The dense
     * profiling path ORs this into a hot accumulator after every step.
     */
    std::span<const uint64_t>
    enabledWords() const
    {
        return {enabled_.data(), words_};
    }

    /**
     * First-level summary of enabledWords(): bit w set iff word w is
     * nonzero. Lets consumers (the dense profiling OR-sweep) visit only
     * live words instead of sweeping all ⌈N/64⌉.
     */
    std::span<const uint64_t>
    enabledSummary() const
    {
        return {enabled_sum_.data(), sum_words_};
    }

    /**
     * Word view of the permanently-enabled (latched) set, monotone
     * within a run. Latched states leave the dynamic vector, so
     * consumers reconstructing "enabled at least once" (the dense
     * profiling path) must union this in.
     */
    std::span<const uint64_t>
    permanentWords() const
    {
        return {perm_.data(), words_};
    }

    /**
     * Flat-sweep crossover: the hierarchical skip path runs only while
     * live words (dynamic + start dispatch) are under 1/kSkipDivisor of
     * the vector; above that the per-word bookkeeping outweighs the
     * skipped work and a linear SIMD sweep wins.
     */
    static constexpr size_t kSkipDivisor = 4;

    /** SIMD tier the word sweeps run at (resolved at construction). */
    simd::Isa isa() const { return ops_->isa; }

    /**
     * Per-run step accounting, zeroed by reset(). Three integer adds
     * per cycle on numbers step() computes anyway — the engine folds
     * them into telemetry once per run, so the hot loop never touches
     * the metrics registry.
     */
    struct StepStats
    {
        uint64_t cycles = 0;     ///< step() calls since reset
        uint64_t skipCycles = 0; ///< cycles served by the skip path
        uint64_t liveWords = 0;  ///< sum of per-cycle live word counts
        /** Input bytes consumed without stepping (trySkip). Named like
         *  the SpAP executor's counters: cycles + skippedSymbols equals
         *  the input length when the driver skips. */
        uint64_t skippedSymbols = 0;
        uint64_t jumps = 0; ///< trySkip calls that skipped >= 1 byte
    };

    const StepStats &stepStats() const { return stats_; }

  private:
    /**
     * Scan masks with more interesting bytes than this are not worth
     * scanning with: the expected jump distance (256/(256-pop)) stays
     * under ~8 bytes, below the fixed cost of the quiescence check.
     */
    static constexpr unsigned kMaxScanPopulation = 224;

    bool quiescent() const;
    void buildDynamicScanMask();
    void clearNext();
    void stepSkip(const uint64_t *accept, uint32_t sk, uint32_t s_end,
                  uint32_t ssk, uint32_t ss_end, uint64_t position,
                  ReportList *reports);
    void stepFlat(const uint64_t *accept, uint8_t cls, uint32_t sk,
                  uint32_t s_end, uint32_t ssk, uint32_t ss_end,
                  uint64_t position, ReportList *reports);
    void orPermanentsIntoNext(bool mark);
    uint64_t latchWord(size_t w, uint64_t v);
    void latch(size_t w, uint64_t fresh);

    const FlatAutomaton &fa_;
    const FlatAutomaton::DenseView &dv_;
    const simd::Ops *ops_; ///< active SIMD kernel table (common/vec.h)
    size_t words_;      ///< enabled-set words: ceil(N / 64)
    size_t sum_words_;  ///< level-1 summary words: ceil(words_ / 64)
    size_t sum2_words_; ///< level-2 summary words: ceil(sum_words_ / 64)
    bool has_starts_;   ///< automaton has always-enabled starts
    bool has_latchable_; ///< automaton has latchable states (see DenseView)
    bool has_perm_ = false; ///< some state has been latched this run
    StepStats stats_;

    WordVector enabled_; ///< enabled for the upcoming step
    WordVector enabled_sum_;
    WordVector enabled_sum2_;
    WordVector next_; ///< scratch: enabled for the following step
    WordVector next_sum_;
    WordVector next_sum2_;
    WordVector active_; ///< flat-path scratch: activations per word
    WordVector scratch_; ///< flat-path scratch: per-bit work / fresh latches
    /** Reporting | fan-out states: the flat path's per-bit work set. */
    WordVector per_bit_;
    WordVector work_sum_; ///< flat-path scratch: words with per-bit work

    /**
     * The dense analogue of the sparse core's latched/permanent
     * machinery. States latched so far this run (perm_) stay out of the
     * dynamic vector; since they activate on every symbol, the union of
     * their successor masks (perm_next_, kept disjoint from perm_) is
     * ORed into next_ wholesale each cycle — one vectorizable sweep of
     * its nonzero words (named, as a superset, by perm_next_sum_)
     * instead of per-bit CSR propagation from thousands of states.
     */
    WordVector perm_;
    WordVector perm_next_;
    WordVector perm_next_sum_;

    /**
     * Quiescent-scan machinery (see trySkip). The static mask is the
     * automaton's P=∅ scan set (DenseView::staticScan), prepared once
     * at construction. Latching widens the set of boring-byte
     * conditions, so the dynamic mask is rebuilt lazily whenever the
     * permanent generation counter (bumped by every latch and reset)
     * moves past the generation it was built for. The _ok_ flags gate
     * on kMaxScanPopulation.
     */
    simd::ScanMask static_scan_{};
    bool static_scan_ok_ = false;
    simd::ScanMask dyn_scan_{};
    bool dyn_scan_ok_ = false;
    uint64_t perm_gen_ = 0;
    uint64_t dyn_scan_gen_ = ~0ull;
};

} // namespace sparseap

#endif // SPARSEAP_SIM_DENSE_CORE_H
