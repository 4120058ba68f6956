#include "graph/topology.h"

#include <algorithm>

#include "common/logging.h"

namespace sparseap {

Topology
analyzeTopology(const Nfa &nfa)
{
    SPARSEAP_ASSERT(nfa.finalized(), "analyzeTopology needs finalized NFA");
    Topology topo;
    topo.order = topologicalLayers(nfa.size(), nfaSuccessors(nfa),
                                   &topo.scc);
    topo.maxOrder = 1;
    for (uint32_t o : topo.order)
        topo.maxOrder = std::max(topo.maxOrder, o);
    return topo;
}

std::vector<uint32_t>
topologicalLayers(size_t n, const SuccessorsFn &successors,
                  SccResult *scc_out)
{
    // Flat arrays only: component ids, then the states grouped by
    // component as a CSR (a counting sort), so layering a flattened
    // rule set allocates a few n-sized vectors however many SCCs it
    // has, not a member list and an adjacency list per SCC.
    std::vector<uint32_t> component;
    const uint32_t nc = labelSccs(n, successors, &component);
    std::vector<uint32_t> begin(nc + 1, 0);
    for (StateId s = 0; s < n; ++s)
        ++begin[component[s]];
    for (uint32_t c = 1; c < nc; ++c)
        begin[c] += begin[c - 1]; // the end of component c's range
    begin[nc] = static_cast<uint32_t>(n);
    std::vector<StateId> members(n);
    for (StateId s = static_cast<StateId>(n); s-- > 0;)
        members[--begin[component[s]]] = s; // ascending within each

    // Longest-path layering over the condensation: labelSccs numbers
    // every edge's target component below its source, so descending
    // ids visit each component after all of its predecessors.
    std::vector<uint32_t> layer(nc, 1);
    for (uint32_t c = nc; c-- > 0;) {
        for (uint32_t k = begin[c]; k < begin[c + 1]; ++k) {
            for (StateId t : successors(members[k])) {
                const uint32_t d = component[t];
                if (d == c)
                    continue;
                SPARSEAP_ASSERT(d < c, "condensation is not a DAG: "
                                "component ", c, " reaches ", d);
                layer[d] = std::max(layer[d], layer[c] + 1);
            }
        }
    }

    std::vector<uint32_t> order(n);
    for (StateId s = 0; s < n; ++s)
        order[s] = layer[component[s]];
    if (scc_out) {
        scc_out->count = nc;
        scc_out->members.assign(nc, {});
        for (uint32_t c = 0; c < nc; ++c)
            scc_out->members[c].assign(members.begin() + begin[c],
                                       members.begin() + begin[c + 1]);
        scc_out->component = std::move(component);
    }
    return order;
}

DepthBucket
depthBucket(double normalized_depth)
{
    if (normalized_depth < 0.3)
        return DepthBucket::Shallow;
    if (normalized_depth < 0.6)
        return DepthBucket::Medium;
    return DepthBucket::Deep;
}

const char *
depthBucketName(DepthBucket b)
{
    switch (b) {
      case DepthBucket::Shallow:
        return "shallow";
      case DepthBucket::Medium:
        return "medium";
      case DepthBucket::Deep:
        return "deep";
    }
    return "?";
}

} // namespace sparseap
