#include "graph/scc.h"

#include <algorithm>

#include "common/logging.h"

namespace sparseap {

size_t
SccResult::largestSize() const
{
    size_t best = 0;
    for (const auto &m : members)
        best = std::max(best, m.size());
    return best;
}

SuccessorsFn
nfaSuccessors(const Nfa &nfa)
{
    return [&nfa](StateId s) -> std::span<const StateId> {
        return nfa.state(s).successors;
    };
}

SccResult
findSccs(const Nfa &nfa)
{
    return findSccs(nfa.size(), nfaSuccessors(nfa));
}

SccResult
findSccs(size_t n, const SuccessorsFn &successors)
{
    SccResult result;
    result.count = labelSccs(n, successors, &result.component);
    // Members in ascending state order, one list per SCC.
    result.members.resize(result.count);
    for (StateId s = 0; s < n; ++s)
        result.members[result.component[s]].push_back(s);
    return result;
}

uint32_t
labelSccs(size_t n, const SuccessorsFn &successors,
          std::vector<uint32_t> *component)
{
    constexpr uint32_t kUnvisited = ~0u;

    component->assign(n, kUnvisited);
    uint32_t count = 0;

    std::vector<uint32_t> index(n, kUnvisited);
    std::vector<uint32_t> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<StateId> stack;
    uint32_t next_index = 0;

    // Explicit DFS frame: (state, its successor list, position in it).
    struct Frame
    {
        StateId v;
        std::span<const StateId> succ;
        size_t child;
    };
    std::vector<Frame> dfs;

    for (StateId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited)
            continue;
        dfs.push_back({root, successors(root), 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;

        while (!dfs.empty()) {
            Frame &fr = dfs.back();
            if (fr.child < fr.succ.size()) {
                StateId w = fr.succ[fr.child++];
                if (index[w] == kUnvisited) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = true;
                    dfs.push_back({w, successors(w), 0});
                } else if (on_stack[w]) {
                    lowlink[fr.v] = std::min(lowlink[fr.v], index[w]);
                }
                continue;
            }
            // All children done: maybe emit an SCC, then propagate lowlink.
            if (lowlink[fr.v] == index[fr.v]) {
                while (true) {
                    StateId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    (*component)[w] = count;
                    if (w == fr.v)
                        break;
                }
                ++count;
            }
            StateId v = fr.v;
            dfs.pop_back();
            if (!dfs.empty()) {
                lowlink[dfs.back().v] =
                    std::min(lowlink[dfs.back().v], lowlink[v]);
            }
        }
    }
    return count;
}

} // namespace sparseap
