/**
 * @file
 * Strongly connected components of an NFA's transition graph.
 *
 * NFAs are not always DAGs (self-loops, back edges). Section III-A of the
 * paper condenses each SCC to a single node so a topological order exists;
 * every state in an SCC then shares one topological layer, which is what
 * guarantees that a layer cut never separates an SCC (invariant 3 in
 * DESIGN.md).
 */

#ifndef SPARSEAP_GRAPH_SCC_H
#define SPARSEAP_GRAPH_SCC_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nfa/nfa.h"

namespace sparseap {

/** Result of SCC identification over one NFA. */
struct SccResult
{
    /** component[s] = SCC id of state s, in [0, count). */
    std::vector<uint32_t> component;
    /** members[c] = states in SCC c. */
    std::vector<std::vector<StateId>> members;
    /** Number of SCCs. */
    uint32_t count = 0;

    /** Size of the largest SCC (1 for a DAG without self-cycles). */
    size_t largestSize() const;
};

/**
 * Out-edges of state s. The graph passes take the adjacency through
 * this accessor, so one implementation serves an Nfa and a flattened
 * automaton's successor CSR alike. Called once per state per pass.
 */
using SuccessorsFn = std::function<std::span<const StateId>(StateId)>;

/**
 * Find SCCs with an iterative Tarjan traversal (no recursion, safe for the
 * multi-thousand-layer automata in ClamAV/Snort workloads).
 */
SccResult findSccs(size_t n, const SuccessorsFn &successors);

/**
 * findSccs without the member lists: only @p component (resized to n)
 * is filled, numbered as findSccs numbers it. Tarjan emits an SCC after
 * every SCC reachable from it, so an edge between two components always
 * leads to the lower id, and descending ids are a topological order of
 * the condensation.
 *
 * @return the number of SCCs
 */
uint32_t labelSccs(size_t n, const SuccessorsFn &successors,
                   std::vector<uint32_t> *component);

/** findSccs over an NFA's own successor lists. */
SccResult findSccs(const Nfa &nfa);

/** The accessor for an NFA's successor lists. */
SuccessorsFn nfaSuccessors(const Nfa &nfa);

} // namespace sparseap

#endif // SPARSEAP_GRAPH_SCC_H
