/**
 * @file
 * Profiling-based hot/cold prediction (Section IV-A / IV-B).
 *
 * A state is *hot* under an input iff it is enabled at least once while
 * executing that input; otherwise it is *cold*. The predictor runs a small
 * profiling prefix of the input and assumes the observed hot set holds for
 * the rest. The per-NFA partition layer k_U is the deepest topological
 * layer containing a profiled-hot state; everything at or above k_U is the
 * *predicted hot set*, everything below is the *predicted cold set*.
 */

#ifndef SPARSEAP_PARTITION_HOTCOLD_H
#define SPARSEAP_PARTITION_HOTCOLD_H

#include <span>
#include <vector>

#include "partition/app_topology.h"
#include "sim/engine.h"
#include "sim/profiler.h"

namespace sparseap {

/** Observed hot set of one run, indexed by global state id. */
struct HotColdProfile
{
    /** hot[gid] == true iff state gid was enabled at least once. */
    std::vector<bool> hot;

    size_t hotCount() const;

    double
    hotFraction() const
    {
        return hot.empty()
                   ? 0.0
                   : static_cast<double>(hotCount()) /
                         static_cast<double>(hot.size());
    }
};

/**
 * Execute @p input on the whole application and record which states were
 * enabled. @p fa must be the FlatAutomaton of the same application.
 */
HotColdProfile profileApplication(const FlatAutomaton &fa,
                                  std::span<const uint8_t> input);

/**
 * Checkpointed profiling: one engine pass over the longest prefix,
 * snapshotting the hot set at every requested prefix length. Because a
 * state once enabled stays hot, the hot set after n symbols equals the
 * profile of the n-byte prefix — so profiling k prefixes of the same
 * input (Table I's 0.1/1/10/50% sweep) costs one run instead of k.
 *
 * @param checkpoints prefix lengths in bytes, sorted ascending, each
 *        <= input.size() (duplicates allowed)
 * @return one profile per checkpoint, in order; profiles[i] is
 *         bit-identical to profileApplication(fa, input[0:checkpoints[i]])
 */
std::vector<HotColdProfile>
profileApplication(const FlatAutomaton &fa, std::span<const uint8_t> input,
                   std::span<const size_t> checkpoints);

/**
 * Variant with an explicit stepping-core selection instead of the
 * SPARSEAP_ENGINE global. All modes produce bit-identical profiles
 * (property-tested): Sparse uses the per-state enable hooks; Dense
 * accumulates the enabled bit vector after every step; Auto runs the
 * automaton's core decision (FlatAutomaton::decideCore), which the
 * profiled prefix makes when it is the automaton's first calibration.
 */
std::vector<HotColdProfile>
profileApplication(const FlatAutomaton &fa, std::span<const uint8_t> input,
                   std::span<const size_t> checkpoints, EngineMode mode);

/** Per-NFA partition layers k_U. */
struct PartitionLayers
{
    /** k[u] = partition layer of NFA u (>= 1). */
    std::vector<uint32_t> k;
};

/**
 * Choose k_U = max topological order over profiled-hot states of NFA U.
 * Start states are always hot, so k_U >= 1.
 */
PartitionLayers chooseLayers(const AppTopology &topo,
                             const HotColdProfile &profile);

/** Number of states with topo order <= k_U, summed over NFAs. */
size_t predictedHotCount(const AppTopology &topo,
                         const PartitionLayers &layers);

/**
 * Expand the layers to the predicted-hot membership bitvector
 * (hot[gid] = topo(gid) <= k_U).
 */
std::vector<bool> layersToPredictedHot(const AppTopology &topo,
                                       const PartitionLayers &layers);

} // namespace sparseap

#endif // SPARSEAP_PARTITION_HOTCOLD_H
