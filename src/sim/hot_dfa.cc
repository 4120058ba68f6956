#include "sim/hot_dfa.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/vec.h"
#include "common/word_vector.h"
#include "graph/topology.h"
#include "sim/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sparseap {

namespace {

/**
 * The bit-level inputs of one subset construction, over the hot states
 * in a compact index space (hot index order == ascending global id), so
 * keys, activated sets and rows are hot-sized however large the
 * automaton is. With every state hot the index is the global id and
 * there is no cold side.
 */
struct HotView
{
    size_t words = 0;
    size_t classes = 0;
    WordVector accept; ///< classes rows of `words` words
    WordVector reporting, sodStarts, allInputStarts;
    /** Word-level successor CSR within the hot set. */
    std::vector<uint32_t> succBegin, succWordIdx;
    WordVector succWordMask;
    /** Hot index -> global id. */
    std::vector<GlobalStateId> global;
    /** Cold successors of hot index h: [coldBegin[h], coldBegin[h+1]). */
    std::vector<uint32_t> coldBegin;
    std::vector<GlobalStateId> coldSucc;
    std::vector<GlobalStateId> coldSodStarts;
    std::vector<GlobalStateId> coldAllInputStarts;
};

/** Compact rows of the states flagged in @p hot (empty: every state),
 *  plus their cold edges. */
void
hotView(const FlatAutomaton &fa, std::span<const uint8_t> hot, HotView *v)
{
    const size_t n = fa.size();
    const bool whole = hot.empty();
    SPARSEAP_ASSERT(whole || hot.size() == n,
                    "hot flags must cover every state");
    auto is_hot = [&](GlobalStateId s) { return whole || hot[s] != 0; };
    std::vector<uint32_t> index(n, 0);
    for (GlobalStateId s = 0; s < n; ++s) {
        if (is_hot(s)) {
            index[s] = static_cast<uint32_t>(v->global.size());
            v->global.push_back(s);
        } else {
            for (GlobalStateId t : fa.successors(s))
                SPARSEAP_ASSERT(!hot[t], "cold state ", s,
                                " enables hot state ", t);
        }
    }
    const size_t h_count = v->global.size();
    const size_t words = wordsForBits(h_count);
    v->words = words;
    v->classes = fa.symbolClassCount();

    v->accept.assign(v->classes * words, 0);
    v->reporting.assign(words, 0);
    v->sodStarts.assign(words, 0);
    v->allInputStarts.assign(words, 0);
    v->succBegin.push_back(0);
    v->coldBegin.push_back(0);
    std::vector<uint32_t> targets;
    for (uint32_t h = 0; h < h_count; ++h) {
        const GlobalStateId g = v->global[h];
        for (size_t c = 0; c < v->classes; ++c)
            if (fa.symbols(g).test(fa.classRepresentative(c)))
                setWordBit(v->accept.data() + c * words, h);
        if (fa.reporting(g))
            setWordBit(v->reporting.data(), h);
        if (fa.start(g) == StartKind::StartOfData)
            setWordBit(v->sodStarts.data(), h);
        if (fa.start(g) == StartKind::AllInput)
            setWordBit(v->allInputStarts.data(), h);

        targets.clear();
        for (GlobalStateId t : fa.successors(g)) {
            if (is_hot(t))
                targets.push_back(index[t]);
            else
                v->coldSucc.push_back(t);
        }
        std::sort(targets.begin(), targets.end());
        for (uint32_t t : targets) {
            const uint32_t w = t / 64;
            if (v->succWordIdx.size() == v->succBegin.back() ||
                v->succWordIdx.back() != w) {
                v->succWordIdx.push_back(w);
                v->succWordMask.push_back(0);
            }
            v->succWordMask.back() |= 1ull << (t % 64);
        }
        v->succBegin.push_back(static_cast<uint32_t>(v->succWordIdx.size()));
        v->coldBegin.push_back(static_cast<uint32_t>(v->coldSucc.size()));
    }
    for (GlobalStateId s : fa.startOfDataStarts())
        if (!is_hot(s))
            v->coldSodStarts.push_back(s);
    for (GlobalStateId s : fa.allInputStarts())
        if (!is_hot(s))
            v->coldAllInputStarts.push_back(s);
}

/** Append @p ids sorted and deduplicated to @p out. */
void
appendSortedUnique(std::vector<GlobalStateId> &ids,
                   std::vector<GlobalStateId> *out)
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    out->insert(out->end(), ids.begin(), ids.end());
}

} // namespace

std::shared_ptr<const HotDfa>
HotDfa::buildSplit(const FlatAutomaton &fa, const Limits &limits)
{
    static telemetry::Counter merged_states("split.merged_states");
    MergedAutomaton merged;
    std::vector<uint8_t> hot;
    {
        // The layers and the merge's temporaries are freed before the
        // subset construction allocates.
        const std::vector<uint32_t> layer = topologicalLayers(
            fa.size(), [&fa](StateId s) { return fa.successors(s); });
        merged = mergeEquivalentStates(fa, layer);
        hot.resize(merged.original.size());
        for (size_t m = 0; m < hot.size(); ++m)
            hot[m] = layer[merged.original[m]] <= Engine::kSplitLayers;
    }
    merged_states.add(fa.size() - merged.automaton->size());
    const std::shared_ptr<HotDfa> dfa =
        build(*merged.automaton, limits, hot);
    if (!dfa)
        return nullptr;
    // Hot reports in original ids, rewritten once: merged ids ascend
    // with their members' original ids, so each list stays ascending.
    for (GlobalStateId &id : dfa->owned_.reportIds)
        id = merged.original[id];
    dfa->cold_ = std::move(merged);
    return dfa;
}

std::shared_ptr<HotDfa>
HotDfa::build(const FlatAutomaton &fa, const Limits &limits,
              std::span<const uint8_t> hot)
{
    SPARSEAP_PHASE("determinize");
    static telemetry::Counter dfa_builds("dfa.builds");
    static telemetry::Counter dfa_bailouts("dfa.bailouts");
    static telemetry::Counter split_builds("split.builds");
    static telemetry::Counter split_bailouts("split.bailouts");
    const bool whole = hot.empty();
    (whole ? dfa_builds : split_builds).add(1);

    HotView v;
    hotView(fa, hot, &v);
    const size_t words = v.words;
    const size_t classes = v.classes;
    if (words == 0 || classes == 0)
        return nullptr; // empty automaton: nothing to determinize
    const simd::Ops &ops = simd::ops();

    auto dfa = std::shared_ptr<HotDfa>(new HotDfa());
    dfa->classes_ = classes;
    for (unsigned b = 0; b < 256; ++b)
        dfa->class_of_[b] = fa.symbolClass(static_cast<uint8_t>(b));
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
    std::vector<GlobalStateId> cold;
    if (!whole) {
        // State 0 enables the cold starts for the first symbol.
        cold = v.coldSodStarts;
        cold.insert(cold.end(), v.coldAllInputStarts.begin(),
                    v.coldAllInputStarts.end());
        dfa->cold_begin_.push_back(0);
        appendSortedUnique(cold, &dfa->cold_ids_);
        dfa->cold_begin_.push_back(
            static_cast<uint32_t>(dfa->cold_ids_.size()));
    }

    WordVector enabled(words, 0);
    WordVector scratch(words, 0);
    std::string key(words * sizeof(uint64_t), '\0');

    const uint32_t *succ_begin = v.succBegin.data();
    const uint32_t *succ_idx = v.succWordIdx.data();
    const uint64_t *succ_mask = v.succWordMask.data();

    // BFS worklist: states are numbered in discovery order and processed
    // in id order; act_sets grows while iterating (one slot per state).
    for (uint32_t s = 0; static_cast<size_t>(s) * words < act_sets.size();
         ++s) {
        // Enabled set feeding state s's transitions: start-of-data
        // starts for the pre-input state, the activated set's successors
        // otherwise; always-enabled starts join either way.
        if (s == 0) {
            std::memcpy(enabled.data(), v.sodStarts.data(),
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
        ops.orInto(enabled.data(), v.allInputStarts.data(), words);

        if (own.table.size() < (static_cast<size_t>(s) + 1) * classes)
            own.table.resize((static_cast<size_t>(s) + 1) * classes, 0);

        for (size_t c = 0; c < classes; ++c) {
            const uint64_t *row = v.accept.data() + c * words;
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
                    (whole ? dfa_bailouts : split_bailouts).add(1);
                    debugLog(whole ? "hot-dfa" : "split",
                             " bailout at ", next_states - 1,
                             " states (", fa.size(), " NFA states, ",
                             classes, " classes)");
                    return nullptr;
                }
                id = static_cast<uint32_t>(next_states - 1);
                dedup.emplace(key, id);
                act_sets.insert(act_sets.end(), scratch.begin(),
                                scratch.end());
                // Reports and cold enables are per-state properties of
                // the activated set, materialized once at discovery
                // (reports in ascending id — the dense core's emission
                // order; hot indices ascend with global ids).
                cold = v.coldAllInputStarts;
                forEachSetBit(
                    std::span<const uint64_t>(scratch.data(), words),
                    [&](size_t bit) {
                        if (testWordBit(v.reporting.data(), bit))
                            own.reportIds.push_back(v.global[bit]);
                        cold.insert(cold.end(),
                                    v.coldSucc.begin() + v.coldBegin[bit],
                                    v.coldSucc.begin() +
                                        v.coldBegin[bit + 1]);
                    });
                own.reportBegin.push_back(
                    static_cast<uint32_t>(own.reportIds.size()));
                if (!whole) {
                    appendSortedUnique(cold, &dfa->cold_ids_);
                    dfa->cold_begin_.push_back(
                        static_cast<uint32_t>(dfa->cold_ids_.size()));
                }
            }
            own.table[static_cast<size_t>(s) * classes + c] = id;
        }
    }

    dfa->states_ = act_sets.size() / words;
    dfa->table_ = own.table;
    dfa->report_begin_ = own.reportBegin;
    dfa->report_ids_ = own.reportIds;
    dfa->buildSkipTables();
    debugLog(whole ? "hot-dfa" : "split", " built: ", dfa->states_,
             " states x ", classes, " classes (", dfa->tableBytes(),
             " table bytes, ", dfa->reportCount(), " report entries, ",
             dfa->cold_ids_.size(), " cold enables) over ", fa.size(),
             " NFA states");
    return dfa;
}

/**
 * Precompute per-state input-skip masks. A state qualifies when it
 * emits no reports (a self-looping reporter must emit at every skipped
 * position), enables no cold state (those must step on the skipped
 * symbols) and self-loops on at least kMinBoringBytes byte values
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
        if (report_begin_[s + 1] != report_begin_[s] ||
            (split() && !coldEnables(s).empty()))
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
    for (unsigned b = 0; b < 256; ++b)
        dfa->class_of_[b] = fa.symbolClass(static_cast<uint8_t>(b));
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
