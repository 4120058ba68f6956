/**
 * @file
 * Common-prefix merging over a FlatAutomaton (as in VASim's optimizer).
 *
 * Two non-reporting states are *forward-equivalent* — enabled and
 * activated on exactly the same cycles, so one STE can stand for both —
 * when they have the same symbol set, start kind and self-loop flag and
 * their other predecessors fall into the same classes. Rule sets
 * compiled pattern by pattern are full of them: every rule starting with
 * "GET " repeats those four states, and twin `.*` gaps after a shared
 * prefix repeat the gap. Reporting states are never merged: distinct
 * reporting states signal distinct rules. Always-enabled starts are
 * keyed like every other state: ignoring their predecessors would fold
 * states of different layers and could put a hot state behind a cold
 * one in the split.
 *
 * The merge is one pass in topological-layer order (graph/topology.h),
 * so every predecessor outside a state's own SCC is classified before
 * the state is. A state with a predecessor on its own layer lies on a
 * cycle and keeps a class of its own. The self-loop is a flag rather
 * than a predecessor, so twin gaps fold in the same pass. Classes are
 * numbered by their lowest original member, so merged ids ascend with
 * the original ids of their representatives, and a reporting state's
 * merged id order is its original id order.
 *
 * The merged automaton is emitted straight from the flat successor
 * CSR: its state m takes its lowest member's symbol set, start kind and
 * reporting flag, and the union of its members' successors. Its report
 * stream is the original's with every state renamed to its class.
 * Merging cannot join two states of different layers, so a merged
 * state's layer is each member's.
 */

#ifndef SPARSEAP_SIM_PREFIX_MERGE_H
#define SPARSEAP_SIM_PREFIX_MERGE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/flat_automaton.h"

namespace sparseap {

/** State counts before and after merging. */
struct OptimizeStats
{
    size_t statesBefore = 0;
    size_t statesAfter = 0;

    double
    reduction() const
    {
        return statesBefore == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(statesAfter) /
                               static_cast<double>(statesBefore);
    }
};

/** A FlatAutomaton with its forward-equivalent states merged. */
struct MergedAutomaton
{
    std::shared_ptr<const FlatAutomaton> automaton;
    /** Merged state id -> its lowest original member. */
    std::vector<GlobalStateId> original;
};

/**
 * Merge the forward-equivalent states of @p fa.
 *
 * @param layer topological layer of every state of @p fa
 *        (topologicalLayers over its successor CSR); empty: computed
 * @param remap optional out-parameter: original id -> merged id
 */
MergedAutomaton
mergeEquivalentStates(const FlatAutomaton &fa,
                      std::span<const uint32_t> layer = {},
                      std::vector<GlobalStateId> *remap = nullptr);

/**
 * The cross-rule state reduction merging gives an application (what
 * `apsim info` and bench/abl_prefix_merge print). The application is
 * not modified.
 */
OptimizeStats measurePrefixMerging(const Application &app);

} // namespace sparseap

#endif // SPARSEAP_SIM_PREFIX_MERGE_H
