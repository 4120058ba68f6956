#include "sim/hot_dfa.h"

#include <cstring>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/vec.h"
#include "common/word_vector.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sparseap {

std::shared_ptr<const HotDfa>
HotDfa::build(const FlatAutomaton &fa, const Limits &limits)
{
    SPARSEAP_PHASE("determinize");
    static telemetry::Counter builds("dfa.builds");
    static telemetry::Counter bailouts("dfa.bailouts");
    builds.add(1);

    const FlatAutomaton::DenseView &dv = fa.denseView();
    const size_t words = dv.words;
    const size_t classes = dv.classes;
    if (words == 0 || classes == 0)
        return nullptr; // empty automaton: nothing to determinize
    const simd::Ops &ops = simd::ops();

    auto dfa = std::shared_ptr<HotDfa>(new HotDfa());
    dfa->classes_ = classes;
    dfa->class_of_ = dv.classOf;
    Owned &own = dfa->owned_;

    // Activated set of every discovered state, back to back. State 0's
    // slot stays all-zero: its enabled set is seeded below, not derived.
    std::vector<uint64_t> act_sets(words, 0);
    // Dedup on the exact activated-set bytes; state 0 excluded (its key
    // would collide with a genuinely empty activated set, which derives
    // different — post-input — successors only when sodStarts differ).
    std::unordered_map<std::string, uint32_t> dedup;
    dedup.reserve(limits.stateBudget);

    own.reportBegin.push_back(0);
    own.reportBegin.push_back(0); // state 0 emits nothing

    WordVector enabled(words, 0);
    WordVector scratch(words, 0);
    std::string key(words * sizeof(uint64_t), '\0');

    const uint32_t *succ_begin = dv.succBegin.data();
    const uint32_t *succ_idx = dv.succWordIdx.data();
    const uint64_t *succ_mask = dv.succWordMask.data();

    // BFS worklist: states are numbered in discovery order and processed
    // in id order; act_sets grows while iterating (one slot per state).
    for (uint32_t s = 0; static_cast<size_t>(s) * words < act_sets.size();
         ++s) {
        // Enabled set feeding state s's transitions: start-of-data
        // starts for the pre-input state, the activated set's successors
        // otherwise; always-enabled starts join either way. (The dense
        // view's successor masks have start-state bits cleared — the OR
        // of the full start row below restores exactly those.)
        if (s == 0) {
            std::memcpy(enabled.data(), dv.sodStarts.data(),
                        words * sizeof(uint64_t));
        } else {
            ops.clear(enabled.data(), words);
            const uint64_t *act = act_sets.data() +
                                  static_cast<size_t>(s) * words;
            for (size_t w = 0; w < words; ++w) {
                uint64_t bits = act[w];
                while (bits != 0) {
                    const unsigned b =
                        static_cast<unsigned>(__builtin_ctzll(bits));
                    const auto st =
                        static_cast<GlobalStateId>(w * 64 + b);
                    for (uint32_t k = succ_begin[st];
                         k < succ_begin[st + 1]; ++k)
                        enabled[succ_idx[k]] |= succ_mask[k];
                    bits &= bits - 1;
                }
            }
        }
        ops.orInto(enabled.data(), dv.allInputStarts.data(), words);

        if (own.table.size() < (static_cast<size_t>(s) + 1) * classes)
            own.table.resize((static_cast<size_t>(s) + 1) * classes, 0);

        for (size_t c = 0; c < classes; ++c) {
            const uint64_t *row = dv.accept.data() + c * dv.stride;
            ops.bitAnd(scratch.data(), enabled.data(), row, words);
            std::memcpy(key.data(), scratch.data(),
                        words * sizeof(uint64_t));

            uint32_t id;
            auto it = dedup.find(key);
            if (it != dedup.end()) {
                id = it->second;
            } else {
                const size_t next_states = act_sets.size() / words + 1;
                if (next_states > limits.stateBudget ||
                    next_states * classes * sizeof(uint32_t) >
                        limits.tableBytes) {
                    bailouts.add(1);
                    debugLog("hot-dfa bailout at ", next_states - 1,
                             " states (", fa.size(), " NFA states, ",
                             classes, " classes)");
                    return nullptr;
                }
                id = static_cast<uint32_t>(next_states - 1);
                dedup.emplace(key, id);
                act_sets.insert(act_sets.end(), scratch.begin(),
                                scratch.end());
                // Reports are a per-state property of the activated
                // set, materialized once at discovery (ascending id —
                // the dense core's emission order).
                forEachSetBit(
                    std::span<const uint64_t>(scratch.data(), words),
                    [&](size_t bit) {
                        if (testWordBit(dv.reporting.data(), bit))
                            own.reportIds.push_back(
                                static_cast<GlobalStateId>(bit));
                    });
                own.reportBegin.push_back(
                    static_cast<uint32_t>(own.reportIds.size()));
            }
            own.table[static_cast<size_t>(s) * classes + c] = id;
        }
    }

    dfa->states_ = act_sets.size() / words;
    dfa->table_ = own.table;
    dfa->report_begin_ = own.reportBegin;
    dfa->report_ids_ = own.reportIds;
    dfa->buildSkipTables();
    debugLog("hot-dfa built: ", dfa->states_, " states x ", classes,
             " classes (", dfa->tableBytes(), " table bytes, ",
             dfa->reportCount(), " report entries) over ", fa.size(),
             " NFA states");
    return dfa;
}

/**
 * Precompute per-state input-skip masks. A state qualifies when it
 * emits no reports (a self-looping reporter must emit at every skipped
 * position) and self-loops on at least kMinBoringBytes byte values
 * (below that the expected jump distance can't pay for the scan).
 * Interesting bytes — next(s, b) != s — go into the mask; the driver
 * scans for them while the DFA sits in s. One 256-probe pass per state,
 * O(states) extra bytes: most workloads have a handful of "gap" states
 * (e.g. scanning for a literal's first byte) that dominate run time.
 */
void
HotDfa::buildSkipTables()
{
    constexpr unsigned kMinBoringBytes = 32;
    owned_.skipIndex.assign(states_, 0);
    for (uint32_t s = 0; s < states_; ++s) {
        if (report_begin_[s + 1] != report_begin_[s])
            continue;
        uint64_t bits[4] = {0, 0, 0, 0};
        unsigned boring = 0;
        const uint32_t *row = table_.data() +
                              static_cast<size_t>(s) * classes_;
        for (unsigned b = 0; b < 256; ++b) {
            if (row[class_of_[b]] == s)
                ++boring;
            else
                bits[b >> 6] |= 1ull << (b & 63);
        }
        if (boring < kMinBoringBytes)
            continue;
        owned_.skipIndex[s] = static_cast<uint32_t>(
            owned_.skipBits.size() / 4 + 1);
        owned_.skipBits.insert(owned_.skipBits.end(), bits, bits + 4);
    }
    skip_index_ = owned_.skipIndex;
    skip_bits_ = owned_.skipBits;
    deriveSkipMasks();
}

void
HotDfa::deriveSkipMasks()
{
    skip_masks_.clear();
    skip_masks_.reserve(skip_bits_.size() / 4);
    for (size_t i = 0; i + 4 <= skip_bits_.size(); i += 4)
        skip_masks_.push_back(
            simd::ScanMask::fromBits(skip_bits_.data() + i));
}

HotDfa::Parts
HotDfa::parts() const
{
    Parts p;
    p.states = states_;
    p.classes = classes_;
    p.table = table_;
    p.reportBegin = report_begin_;
    p.reportIds = report_ids_;
    p.skipIndex = skip_index_;
    p.skipBits = skip_bits_;
    p.backing = backing_;
    return p;
}

std::shared_ptr<const HotDfa>
HotDfa::fromParts(const Parts &parts, const FlatAutomaton &fa)
{
    auto dfa = std::shared_ptr<HotDfa>(new HotDfa());
    dfa->states_ = parts.states;
    dfa->classes_ = parts.classes;
    dfa->class_of_ = fa.denseView().classOf;
    dfa->table_ = parts.table;
    dfa->report_begin_ = parts.reportBegin;
    dfa->report_ids_ = parts.reportIds;
    dfa->skip_index_ = parts.skipIndex;
    dfa->skip_bits_ = parts.skipBits;
    dfa->backing_ = parts.backing;
    // Only the shuffle nibble tables are derived; the skip tables
    // themselves are adopted as stored.
    dfa->deriveSkipMasks();
    return dfa;
}

} // namespace sparseap
