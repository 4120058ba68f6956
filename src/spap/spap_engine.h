/**
 * @file
 * SparseAP (SpAP) execution mode — Algorithm 1 of the paper.
 *
 * The predicted-cold fabric is driven by the input stream *and* by the
 * intermediate reports recorded during BaseAP mode. Two operations make it
 * cheap:
 *
 *  - *jump*: when no state is enabled, skip the input cursor directly to
 *    the position of the next intermediate report (nothing can activate
 *    in between because no cold state is always-enabled);
 *  - *enable*: set the state bit of the report's target STE through the
 *    routing-matrix decoder hierarchy. One enable per cycle overlaps
 *    input processing for free; each additional simultaneous enable
 *    stalls the input pipeline one cycle ("EStalls").
 */

#ifndef SPARSEAP_SPAP_SPAP_ENGINE_H
#define SPARSEAP_SPAP_SPAP_ENGINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "sim/engine.h"
#include "sim/flat_automaton.h"
#include "sim/report.h"

namespace sparseap {

/**
 * One intermediate report: enable state @c state (id local to the cold
 * automaton being run) before consuming input position @c position.
 */
struct SpapEvent
{
    /** Global stream offset, matching Report::position's width. */
    uint64_t position;
    GlobalStateId state;
};

/** Outcome of one SpAP-mode run over one cold batch. */
struct SpapResult
{
    /** Reports from original (cold) reporting states, local ids. */
    ReportList reports;
    /** Input symbols actually consumed (jumped-over symbols excluded). */
    uint64_t consumedCycles = 0;
    /** Stall cycles from simultaneous enables (m events -> m-1 stalls). */
    uint64_t enableStalls = 0;
    /** Number of jump operations performed. */
    uint64_t jumps = 0;
    /** Enable operations performed (events applied to the fabric). */
    uint64_t enables = 0;
    /** Input symbols jumped over (never consumed). */
    uint64_t skippedSymbols = 0;

    /** Total SpAP cycles charged: consumed symbols plus enable stalls. */
    uint64_t totalCycles() const { return consumedCycles + enableStalls; }
};

/**
 * Execute Algorithm 1.
 *
 * Like Engine, the run can execute on either stepping core: @p mode
 * pins it, and Auto starts sparse then hands the in-flight enabled set
 * to the bit-parallel dense core when the sparse core's measured work
 * over its first Engine::kProbeCycles consumed cycles reaches
 * Engine::denseWorkThreshold, the core decision's threshold. Jumps, enable stalls, consumed cycles and the
 * report multiset are identical on every core — only report order
 * within one position may differ (callers sort).
 *
 * @param fa the cold automaton (must contain no start states)
 * @param input the full test input stream
 * @param events intermediate reports sorted by position, targeting states
 *               of @p fa
 * @param mode stepping-core selection
 */
SpapResult runSpapMode(const FlatAutomaton &fa,
                       std::span<const uint8_t> input,
                       std::span<const SpapEvent> events, EngineMode mode);

/** runSpapMode with the process-wide SPARSEAP_ENGINE mode. */
SpapResult runSpapMode(const FlatAutomaton &fa,
                       std::span<const uint8_t> input,
                       std::span<const SpapEvent> events);

} // namespace sparseap

#endif // SPARSEAP_SPAP_SPAP_ENGINE_H
