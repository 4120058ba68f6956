/**
 * @file
 * Topological layering and normalized depth (Section III-A of the paper).
 *
 * The topological order of a state is the maximum number of matching steps
 * from a starting state to it: starting states (and any SCC with no
 * predecessors) sit in layer 1, a state reachable only through d matches
 * sits in layer d+1. All states of one SCC share a layer. Normalized depth
 * is layer / max-layer within the NFA, in (0, 1].
 */

#ifndef SPARSEAP_GRAPH_TOPOLOGY_H
#define SPARSEAP_GRAPH_TOPOLOGY_H

#include <cstdint>
#include <vector>

#include "graph/scc.h"
#include "nfa/nfa.h"

namespace sparseap {

/** Per-NFA topological analysis. */
struct Topology
{
    /** SCC labelling the layering was computed on. */
    SccResult scc;
    /** order[s] = 1-based topological layer of state s. */
    std::vector<uint32_t> order;
    /** Maximum layer in this NFA (>= 1). */
    uint32_t maxOrder = 0;

    /** normalized depth of state s = order[s] / maxOrder. */
    double
    normalizedDepth(StateId s) const
    {
        return static_cast<double>(order[s]) /
               static_cast<double>(maxOrder);
    }
};

/**
 * Compute SCCs, condensation and longest-path layers for one NFA.
 *
 * The NFA must be finalized. Runs in O(V + E).
 */
Topology analyzeTopology(const Nfa &nfa);

/**
 * Longest-path layers (1-based, as Topology::order) of every state of
 * any graph given by its successor accessor. Disconnected parts — the
 * NFAs of a flattened application — are layered independently, so a
 * flattened automaton's layers equal its NFAs' own. Runs in O(V + E).
 *
 * @param scc_out optional: receives the SCC labelling used
 */
std::vector<uint32_t> topologicalLayers(size_t n,
                                        const SuccessorsFn &successors,
                                        SccResult *scc_out = nullptr);

/**
 * Depth buckets used for presentation in Fig. 5: shallow [0, 0.3),
 * medium [0.3, 0.6), deep [0.6, 1].
 */
enum class DepthBucket : uint8_t { Shallow, Medium, Deep };

/** Classify a normalized depth into its Fig. 5 bucket. */
DepthBucket depthBucket(double normalized_depth);

/** @return "shallow", "medium" or "deep". */
const char *depthBucketName(DepthBucket b);

} // namespace sparseap

#endif // SPARSEAP_GRAPH_TOPOLOGY_H
