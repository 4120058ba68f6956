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
    SccResult scc = findSccs(n, successors);
    const Condensation cond = condense(n, successors, scc);
    const uint32_t nc = scc.count;

    // Longest-path layering over the condensation DAG via Kahn order.
    std::vector<uint32_t> indegree(nc, 0);
    for (uint32_t c = 0; c < nc; ++c)
        for (uint32_t d : cond.adj[c])
            ++indegree[d];

    std::vector<uint32_t> layer(nc, 1);
    std::vector<uint32_t> ready;
    ready.reserve(nc);
    for (uint32_t c = 0; c < nc; ++c)
        if (indegree[c] == 0)
            ready.push_back(c);

    size_t processed = 0;
    while (processed < ready.size()) {
        uint32_t c = ready[processed++];
        for (uint32_t d : cond.adj[c]) {
            layer[d] = std::max(layer[d], layer[c] + 1);
            if (--indegree[d] == 0)
                ready.push_back(d);
        }
    }
    SPARSEAP_ASSERT(processed == nc,
                    "condensation is not a DAG: processed ", processed,
                    " of ", nc, " components");

    std::vector<uint32_t> order(n);
    for (StateId s = 0; s < n; ++s)
        order[s] = layer[scc.component[s]];
    if (scc_out)
        *scc_out = std::move(scc);
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
