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
    constexpr uint32_t kUnvisited = ~0u;

    SccResult result;
    result.component.assign(n, kUnvisited);

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
                std::vector<StateId> members;
                while (true) {
                    StateId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    result.component[w] = result.count;
                    members.push_back(w);
                    if (w == fr.v)
                        break;
                }
                std::sort(members.begin(), members.end());
                result.members.push_back(std::move(members));
                ++result.count;
            }
            StateId v = fr.v;
            dfs.pop_back();
            if (!dfs.empty()) {
                lowlink[dfs.back().v] =
                    std::min(lowlink[dfs.back().v], lowlink[v]);
            }
        }
    }
    return result;
}

Condensation
condense(const Nfa &nfa, const SccResult &scc)
{
    return condense(nfa.size(), nfaSuccessors(nfa), scc);
}

Condensation
condense(size_t n, const SuccessorsFn &successors, const SccResult &scc)
{
    Condensation c;
    c.adj.resize(scc.count);
    for (StateId u = 0; u < n; ++u) {
        uint32_t cu = scc.component[u];
        for (StateId v : successors(u)) {
            uint32_t cv = scc.component[v];
            if (cu != cv)
                c.adj[cu].push_back(cv);
        }
    }
    for (auto &a : c.adj) {
        std::sort(a.begin(), a.end());
        a.erase(std::unique(a.begin(), a.end()), a.end());
    }
    return c;
}

} // namespace sparseap
