#include "support/random_nfa.h"

#include <algorithm>

namespace sparseap::testing {

Nfa
randomNfa(Rng &rng, const RandomNfaParams &params, const std::string &name)
{
    const size_t n = rng.uniform(params.minStates, params.maxStates);
    Nfa nfa(name);

    std::vector<bool> wants_self_loop(n, false);
    for (size_t i = 0; i < n; ++i) {
        SymbolSet set;
        if (rng.chance(params.universalProb)) {
            set = SymbolSet::all();
            wants_self_loop[i] = rng.chance(0.5);
        } else {
            const unsigned symbols = static_cast<unsigned>(
                rng.uniform(params.minSymbols, params.maxSymbols));
            for (unsigned s = 0; s < symbols; ++s)
                set.set(static_cast<uint8_t>(
                    rng.index(params.alphabetSize)));
        }
        StartKind start = StartKind::None;
        if (i == 0 || rng.chance(params.extraStartProb)) {
            start = rng.chance(params.sodProb) ? StartKind::StartOfData
                                               : StartKind::AllInput;
        }
        nfa.addState(set, start, rng.chance(params.reportProb));
    }
    for (size_t i = 0; i < n; ++i) {
        if (wants_self_loop[i])
            nfa.addEdge(static_cast<StateId>(i), static_cast<StateId>(i));
    }

    // Forward-ish edges to keep most of the graph reachable, plus random
    // back edges for cycles.
    for (StateId u = 0; u < n; ++u) {
        const unsigned out = static_cast<unsigned>(
            rng.geometric(1.0 / (params.avgOutDegree + 1.0)));
        for (unsigned e = 0; e < out; ++e) {
            StateId v = static_cast<StateId>(rng.index(n));
            nfa.addEdge(u, v);
        }
        if (u + 1 < n && rng.chance(0.8))
            nfa.addEdge(u, u + 1); // a forward spine
        if (params.backEdgeProb > 0 && u > 0 &&
            rng.chance(params.backEdgeProb)) {
            nfa.addEdge(u, static_cast<StateId>(rng.index(u)));
        }
    }
    nfa.finalize();
    return nfa;
}

Application
randomApplication(Rng &rng, size_t nfa_count, const RandomNfaParams &params)
{
    Application app("random_app", "RAND");
    for (size_t i = 0; i < nfa_count; ++i)
        app.addNfa(randomNfa(rng, params, "rand_" + std::to_string(i)));
    return app;
}

Application
randomRuleSet(Rng &rng, size_t nfa_count, unsigned alphabet_size,
              std::vector<std::vector<uint8_t>> *matches)
{
    auto literal = [&](size_t lo, size_t hi) {
        std::vector<uint8_t> bytes(rng.uniform(lo, hi));
        for (uint8_t &b : bytes)
            b = static_cast<uint8_t>(rng.index(alphabet_size));
        return bytes;
    };
    std::vector<std::vector<uint8_t>> prefixes(2 + rng.index(2));
    for (auto &p : prefixes)
        p = literal(2, 6);
    std::vector<std::vector<uint8_t>> tails(2 + rng.index(2));
    for (auto &t : tails)
        t = literal(1, 4);

    Application app("rule_set", "RULES");
    matches->clear();
    for (size_t i = 0; i < nfa_count; ++i) {
        Nfa nfa("rule_" + std::to_string(i));
        std::vector<uint8_t> &match = matches->emplace_back();
        const StartKind start = rng.chance(0.15) ? StartKind::StartOfData
                                                 : StartKind::AllInput;
        StateId last = kInvalidState;
        auto chain = [&](const std::vector<uint8_t> &bytes) {
            for (uint8_t b : bytes) {
                const StateId s = nfa.addState(
                    SymbolSet::single(b),
                    last == kInvalidState ? start : StartKind::None,
                    false);
                if (last != kInvalidState)
                    nfa.addEdge(last, s);
                last = s;
                match.push_back(b);
            }
        };
        chain(prefixes[rng.index(prefixes.size())]);
        if (rng.chance(0.2))
            nfa.state(last).reporting = true;
        if (rng.chance(0.7)) {
            const StateId gap = nfa.addState(SymbolSet::all());
            nfa.addEdge(last, gap);
            nfa.addEdge(gap, gap);
            last = gap;
            const std::vector<uint8_t> filler = literal(1, 5);
            match.insert(match.end(), filler.begin(), filler.end());
        }
        const StateId tail_first = static_cast<StateId>(nfa.size());
        chain(rng.chance(0.6) ? tails[rng.index(tails.size())]
                              : literal(1, 4));
        if (rng.chance(0.15))
            nfa.addEdge(tail_first, tail_first); // a `b+` position
        nfa.state(last).reporting = true;
        if (rng.chance(0.1))
            nfa.addEdge(last, tail_first); // the tail repeats
        nfa.finalize();
        app.addNfa(std::move(nfa));
    }
    return app;
}

uint32_t
minPartitionLayer(const Nfa &nfa, const Topology &topo)
{
    uint32_t min_layer = 1;
    for (StateId s : nfa.startStates())
        min_layer = std::max(min_layer, topo.order[s]);
    return min_layer;
}

void
plantMatches(const Application &app,
             const std::vector<std::vector<uint8_t>> &matches, Rng &rng,
             std::vector<uint8_t> *input)
{
    for (size_t k = 0; k < matches.size(); ++k) {
        const std::vector<uint8_t> &m = matches[k];
        if (m.empty() || m.size() > input->size())
            continue;
        const Nfa &nfa = app.nfa(static_cast<uint32_t>(k));
        const bool anchored = std::none_of(
            nfa.startStates().begin(), nfa.startStates().end(),
            [&](StateId s) {
                return nfa.state(s).start == StartKind::AllInput;
            });
        const size_t at =
            anchored ? 0 : rng.index(input->size() - m.size() + 1);
        std::copy(m.begin(), m.end(), input->begin() + at);
    }
}

std::vector<uint8_t>
randomInput(Rng &rng, size_t len, unsigned alphabet_size)
{
    std::vector<uint8_t> input(len);
    for (auto &b : input)
        b = static_cast<uint8_t>(rng.index(alphabet_size));
    return input;
}

} // namespace sparseap::testing
