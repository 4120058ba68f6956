#include "sim/prefix_merge.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "graph/topology.h"

namespace sparseap {

namespace {

constexpr uint32_t kNone = ~0u;

/** splitmix64's finalizer: spreads a combined key over the table. */
uint64_t
mix(uint64_t h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/**
 * The classes of one pass, keyed by (symbol set, start kind, self-loop
 * flag, sorted predecessor classes). A class's key lives in flat arrays:
 * its first member supplies the first three fields and the predecessor
 * classes sit in one shared arena. The lookup is an open-addressing
 * table of class ids at load <= 1/2.
 */
class ClassTable
{
  public:
    ClassTable(const FlatAutomaton &fa, const std::vector<uint8_t> &self,
               size_t n)
        : fa_(fa), self_(self),
          slots_(std::bit_ceil(std::max<size_t>(2 * n, 2)), kNone)
    {
        key_begin_.push_back(0);
    }

    /** A class of its own, never looked up. */
    uint32_t
    singleton(GlobalStateId s)
    {
        return append(s, {});
    }

    /** The class keyed by @p s and @p preds, created on first sight. */
    uint32_t
    find(GlobalStateId s, std::span<const uint32_t> preds)
    {
        uint64_t h = mix(fa_.symbols(s).hash() ^
                         (static_cast<uint64_t>(fa_.start(s)) << 1 |
                          self_[s]));
        for (uint32_t c : preds)
            h = mix(h ^ c);
        const size_t mask = slots_.size() - 1;
        for (size_t i = h & mask;; i = (i + 1) & mask) {
            const uint32_t c = slots_[i];
            if (c == kNone) {
                slots_[i] = append(s, preds);
                return slots_[i];
            }
            const GlobalStateId r = first_[c];
            if (fa_.symbols(r) == fa_.symbols(s) &&
                fa_.start(r) == fa_.start(s) && self_[r] == self_[s] &&
                std::equal(preds.begin(), preds.end(),
                           key_preds_.begin() + key_begin_[c],
                           key_preds_.begin() + key_begin_[c + 1]))
                return c;
        }
    }

  private:
    uint32_t
    append(GlobalStateId s, std::span<const uint32_t> preds)
    {
        first_.push_back(s);
        key_preds_.insert(key_preds_.end(), preds.begin(), preds.end());
        key_begin_.push_back(static_cast<uint32_t>(key_preds_.size()));
        return static_cast<uint32_t>(first_.size() - 1);
    }

    const FlatAutomaton &fa_;
    const std::vector<uint8_t> &self_;
    std::vector<uint32_t> slots_;
    std::vector<GlobalStateId> first_;
    std::vector<uint32_t> key_begin_;
    std::vector<uint32_t> key_preds_;
};

/**
 * Class of every state of @p fa, numbered in order of discovery (see
 * the file comment for the key and the pass).
 */
std::vector<uint32_t>
classify(const FlatAutomaton &fa, std::span<const uint32_t> layer)
{
    const size_t n = fa.size();

    // Predecessor CSR and self-loop flags.
    std::vector<uint8_t> self(n, 0);
    std::vector<uint32_t> pred_begin(n + 1, 0);
    for (GlobalStateId s = 0; s < n; ++s) {
        for (GlobalStateId t : fa.successors(s)) {
            if (t == s)
                self[s] = 1;
            else
                ++pred_begin[t];
        }
    }
    for (size_t t = 1; t < n; ++t)
        pred_begin[t] += pred_begin[t - 1];
    pred_begin[n] = n == 0 ? 0 : pred_begin[n - 1];
    std::vector<GlobalStateId> preds(pred_begin[n]);
    for (GlobalStateId s = 0; s < n; ++s)
        for (GlobalStateId t : fa.successors(s))
            if (t != s)
                preds[--pred_begin[t]] = s;

    // States in ascending layer order (a counting sort).
    std::vector<GlobalStateId> order(n);
    {
        const uint32_t max_layer =
            n == 0 ? 0 : *std::max_element(layer.begin(), layer.end());
        std::vector<uint32_t> at(max_layer + 2, 0);
        for (uint32_t l : layer)
            ++at[l + 1];
        for (size_t l = 1; l < at.size(); ++l)
            at[l] += at[l - 1];
        for (GlobalStateId s = 0; s < n; ++s)
            order[at[layer[s]]++] = s;
    }

    std::vector<uint32_t> cls(n, kNone);
    ClassTable table(fa, self, n);
    std::vector<uint32_t> key;
    for (GlobalStateId s : order) {
        bool own = fa.reporting(s) != 0;
        key.clear();
        for (uint32_t k = pred_begin[s]; k < pred_begin[s + 1] && !own;
             ++k) {
            // A predecessor on s's own layer shares its SCC: s lies on
            // a cycle and that predecessor is not classified yet.
            own = layer[preds[k]] == layer[s];
            key.push_back(cls[preds[k]]);
        }
        if (own) {
            cls[s] = table.singleton(s);
            continue;
        }
        std::sort(key.begin(), key.end());
        key.erase(std::unique(key.begin(), key.end()), key.end());
        cls[s] = table.find(s, key);
    }
    return cls;
}

} // namespace

MergedAutomaton
mergeEquivalentStates(const FlatAutomaton &fa,
                      std::span<const uint32_t> layer,
                      std::vector<GlobalStateId> *remap)
{
    const size_t n = fa.size();
    std::vector<uint32_t> cls;
    if (layer.empty() && n > 0) {
        const std::vector<uint32_t> own = topologicalLayers(
            n, [&fa](StateId s) { return fa.successors(s); });
        cls = classify(fa, own);
    } else {
        SPARSEAP_ASSERT(layer.size() == n, "one layer per state");
        cls = classify(fa, layer);
    }

    // Renumber the classes by their lowest member: cls becomes the
    // original -> merged map.
    MergedAutomaton merged;
    {
        std::vector<uint32_t> number(n, kNone);
        for (GlobalStateId s = 0; s < n; ++s) {
            uint32_t &m = number[cls[s]];
            if (m == kNone) {
                m = static_cast<uint32_t>(merged.original.size());
                merged.original.push_back(s);
            }
            cls[s] = m;
        }
    }
    const size_t k = merged.original.size();

    FlatAutomaton::Csr csr;
    csr.symbols.reserve(k);
    csr.reporting.reserve(k);
    csr.start.reserve(k);
    for (GlobalStateId r : merged.original) {
        csr.symbols.push_back(fa.symbols(r));
        csr.reporting.push_back(fa.reporting(r) ? 1 : 0);
        csr.start.push_back(fa.start(r));
    }
    // Every member's successors, renamed, grouped by class (a counting
    // sort), then sorted and deduplicated in place per class.
    csr.succBegin.assign(k + 1, 0);
    for (GlobalStateId s = 0; s < n; ++s)
        csr.succBegin[cls[s]] +=
            static_cast<uint32_t>(fa.successors(s).size());
    for (size_t m = 1; m < k; ++m)
        csr.succBegin[m] += csr.succBegin[m - 1];
    csr.succBegin[k] = k == 0 ? 0 : csr.succBegin[k - 1];
    csr.succ.resize(csr.succBegin[k]);
    for (GlobalStateId s = 0; s < n; ++s)
        for (GlobalStateId t : fa.successors(s))
            csr.succ[--csr.succBegin[cls[s]]] = cls[t];
    uint32_t out = 0;
    for (size_t m = 0; m < k; ++m) {
        const auto first = csr.succ.begin() + csr.succBegin[m];
        auto last = csr.succ.begin() + csr.succBegin[m + 1];
        std::sort(first, last);
        last = std::unique(first, last);
        csr.succBegin[m] = out;
        if (csr.succ.begin() + out != first) // never overlaps: out < first
            std::copy(first, last, csr.succ.begin() + out);
        out += static_cast<uint32_t>(last - first);
    }
    csr.succBegin[k] = out;
    csr.succ.resize(out);
    csr.succ.shrink_to_fit();

    merged.automaton = std::make_shared<const FlatAutomaton>(std::move(csr));
    if (remap)
        *remap = std::move(cls);
    return merged;
}

OptimizeStats
measurePrefixMerging(const Application &app)
{
    const FlatAutomaton fa(app);
    return {fa.size(), mergeEquivalentStates(fa).automaton->size()};
}

} // namespace sparseap
