#include "workloads/inputs.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace sparseap {

std::vector<uint8_t>
synthesizeInput(const InputSpec &spec, size_t bytes, Rng &rng)
{
    if (spec.base == InputSpec::Base::Alphabet)
        SPARSEAP_ASSERT(!spec.alphabet.empty(),
                        "Alphabet input base needs a non-empty alphabet");

    std::vector<uint8_t> out;
    out.reserve(bytes);

    auto background = [&]() -> uint8_t {
        if (spec.base == InputSpec::Base::Alphabet) {
            return static_cast<uint8_t>(
                spec.alphabet[rng.index(spec.alphabet.size())]);
        }
        return rng.byte();
    };

    const size_t quiet_end =
        static_cast<size_t>(static_cast<double>(bytes) *
                            spec.quietFraction);

    while (out.size() < bytes) {
        // Late bytes: only after the quiet prefix has passed.
        if (spec.lateRate > 0.0 && out.size() >= quiet_end &&
            !spec.lateBytes.empty() && rng.chance(spec.lateRate)) {
            out.push_back(static_cast<uint8_t>(
                spec.lateBytes[rng.index(spec.lateBytes.size())]));
            continue;
        }
        if (!spec.plants.empty() && spec.plantRate > 0.0 &&
            rng.chance(spec.plantRate)) {
            const std::string &plant = rng.pick(spec.plants);
            if (rng.chance(spec.fullPlantProb)) {
                for (char c : plant) {
                    if (out.size() >= bytes)
                        break;
                    out.push_back(static_cast<uint8_t>(c));
                }
            } else {
                for (char c : plant) {
                    if (out.size() >= bytes)
                        break;
                    out.push_back(static_cast<uint8_t>(c));
                    if (!rng.chance(spec.prefixKeepProb))
                        break;
                }
            }
            continue;
        }
        out.push_back(background());
    }
    return out;
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

} // namespace sparseap
