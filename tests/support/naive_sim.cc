#include "support/naive_sim.h"

#include <algorithm>
#include <deque>
#include <set>

namespace sparseap::testing {
namespace {

/** Run one NFA; appends reports (with global ids offset by @p base). */
void
runOne(const Nfa &nfa, std::span<const uint8_t> input, GlobalStateId base,
       ReportList *reports, std::vector<bool> *hot)
{
    std::set<StateId> enabled;
    auto mark_hot = [&](StateId s) {
        if (hot)
            (*hot)[base + s] = true;
    };

    for (StateId s : nfa.startStates()) {
        mark_hot(s);
        if (nfa.state(s).start == StartKind::StartOfData)
            enabled.insert(s);
    }

    for (size_t i = 0; i < input.size(); ++i) {
        // Always-enabled states join the enabled set every cycle.
        std::set<StateId> current = enabled;
        for (StateId s : nfa.startStates()) {
            if (nfa.state(s).start == StartKind::AllInput)
                current.insert(s);
        }
        std::set<StateId> next;
        for (StateId s : current) {
            if (!nfa.state(s).symbols.test(input[i]))
                continue;
            if (nfa.state(s).reporting && reports) {
                reports->push_back(
                    {static_cast<uint32_t>(i), base + s});
            }
            for (StateId t : nfa.state(s).successors) {
                next.insert(t);
                mark_hot(t);
            }
        }
        enabled.swap(next);
    }
}

} // namespace

ReportList
naiveSimulate(const Application &app, std::span<const uint8_t> input)
{
    ReportList reports;
    for (uint32_t u = 0; u < app.nfaCount(); ++u)
        runOne(app.nfa(u), input, app.nfaOffset(u), &reports, nullptr);
    std::sort(reports.begin(), reports.end());
    return reports;
}

std::vector<bool>
naiveHotSet(const Application &app, std::span<const uint8_t> input)
{
    std::vector<bool> hot(app.totalStates(), false);
    for (uint32_t u = 0; u < app.nfaCount(); ++u)
        runOne(app.nfa(u), input, app.nfaOffset(u), nullptr, &hot);
    return hot;
}

std::vector<uint8_t>
matchingBytes(const Nfa &nfa)
{
    std::vector<StateId> parent(nfa.size(), kInvalidState);
    std::deque<StateId> queue;
    for (StartKind kind : {StartKind::AllInput, StartKind::StartOfData}) {
        for (StateId s : nfa.startStates()) {
            if (nfa.state(s).start == kind) {
                parent[s] = s;
                queue.push_back(s);
            }
        }
        if (!queue.empty())
            break; // start-of-data starts only for an anchored NFA
    }
    while (!queue.empty()) {
        const StateId s = queue.front();
        queue.pop_front();
        if (nfa.state(s).reporting) {
            std::vector<uint8_t> bytes;
            for (StateId t = s;; t = parent[t]) {
                uint8_t b = 0;
                while (b < 255 && !nfa.state(t).symbols.test(b))
                    ++b;
                bytes.push_back(b);
                if (parent[t] == t)
                    break;
            }
            std::reverse(bytes.begin(), bytes.end());
            return bytes;
        }
        for (StateId next : nfa.state(s).successors) {
            if (parent[next] == kInvalidState) {
                parent[next] = s;
                queue.push_back(next);
            }
        }
    }
    return {};
}

} // namespace sparseap::testing
