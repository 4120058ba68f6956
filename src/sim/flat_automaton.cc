#include "sim/flat_automaton.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "sim/engine.h"
#include "sim/exec_core.h"
#include "sim/hot_dfa.h"
#include "telemetry/trace.h"

namespace sparseap {

namespace {

/**
 * Derive the shift rows and the fan-out row (see their field docs):
 * rank the offsets d = t - s in [0, 63] of every successor bit t of
 * every state s by how many bits they carry, keep up to kMaxShifts of
 * those carrying at least one bit per vector word, and put every state
 * with a bit on no kept offset in the fan-out row.
 */
void
computeShiftRows(FlatAutomaton::DenseView &dv)
{
    using DenseView = FlatAutomaton::DenseView;
    constexpr size_t kOffsets = 64;
    auto &own = dv.owned;
    const size_t n = dv.succBegin.size() - 1;

    // Calls visit(s, d) for every successor bit, with d = kOffsets for
    // a bit outside [s, s + 63] (a back edge or a far jump).
    auto forEachEdge = [&](auto &&visit) {
        for (GlobalStateId s = 0; s < n; ++s) {
            for (uint32_t k = dv.succBegin[s]; k < dv.succBegin[s + 1];
                 ++k) {
                const uint64_t base = uint64_t{dv.succWordIdx[k]} * 64;
                uint64_t bits = dv.succWordMask[k];
                while (bits != 0) {
                    const uint64_t t =
                        base + static_cast<unsigned>(__builtin_ctzll(bits));
                    bits &= bits - 1;
                    visit(s, t >= s && t - s < kOffsets ? t - s : kOffsets);
                }
            }
        }
    };

    std::array<uint64_t, kOffsets + 1> cover{};
    forEachEdge([&](GlobalStateId, size_t d) { ++cover[d]; });
    std::array<uint8_t, kOffsets> ranked;
    for (size_t d = 0; d < kOffsets; ++d)
        ranked[d] = static_cast<uint8_t>(d);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](uint8_t a, uint8_t b) { return cover[a] > cover[b]; });
    own.shifts.clear();
    for (uint8_t d : ranked) {
        if (own.shifts.size() == DenseView::kMaxShifts || cover[d] == 0 ||
            cover[d] < dv.words)
            break;
        own.shifts.push_back(d);
    }

    constexpr size_t kNoRow = DenseView::kMaxShifts;
    std::array<size_t, kOffsets + 1> row_of;
    row_of.fill(kNoRow);
    for (size_t k = 0; k < own.shifts.size(); ++k)
        row_of[own.shifts[k]] = k;
    own.shiftRows.assign(own.shifts.size() * dv.stride, 0);
    own.fanout.assign(dv.words, 0);
    forEachEdge([&](GlobalStateId s, size_t d) {
        if (row_of[d] == kNoRow)
            setWordBit(own.fanout.data(), s);
        else
            setWordBit(own.shiftRows.data() + row_of[d] * dv.stride, s + d);
    });
    dv.shifts = own.shifts;
    dv.shiftRows = own.shiftRows;
    dv.fanout = own.fanout;
}

/**
 * Compute the DenseView's derived fields — the shift and fan-out rows,
 * the dense start-dispatch rows and the quiescent scan set (see their
 * field docs) — from the already-installed CSR spans. Called by both
 * construction paths (flatten and store-decode); the results live in
 * the view itself and are never serialized.
 */
void
computeDerivedArrays(FlatAutomaton::DenseView &dv)
{
    auto &own = dv.owned;
    computeShiftRows(dv);

    own.startNextRow.assign(dv.classes, 0);
    uint32_t rows = 0;
    for (size_t c = 0; c < dv.classes; ++c) {
        const size_t entries =
            dv.startSuccBegin[c + 1] - dv.startSuccBegin[c];
        if (entries > 0 && entries * 8 >= dv.words)
            own.startNextRow[c] = ++rows;
    }
    own.startNextRows.assign(static_cast<size_t>(rows) * dv.stride, 0);
    for (size_t c = 0; c < dv.classes; ++c) {
        if (own.startNextRow[c] == 0)
            continue;
        uint64_t *row = own.startNextRows.data() +
                        static_cast<size_t>(own.startNextRow[c] - 1) *
                            dv.stride;
        for (uint32_t k = dv.startSuccBegin[c];
             k < dv.startSuccBegin[c + 1]; ++k)
            row[dv.startSuccWordIdx[k]] |= dv.startSuccWordMask[k];
    }
    dv.startNextRow = own.startNextRow;
    dv.startNextRows = own.startNextRows;

    // Quiescent scan set (see its field doc): a byte can wake the
    // all-idle configuration iff its class dispatches any reporting
    // start or contributes any pooled start successor.
    dv.staticScan.fill(0);
    for (unsigned b = 0; b < 256; ++b) {
        const uint8_t c = dv.classOf[b];
        if (dv.startBegin[c + 1] > dv.startBegin[c] ||
            dv.startSuccBegin[c + 1] > dv.startSuccBegin[c])
            dv.staticScan[b >> 6] |= 1ull << (b & 63);
    }
}

} // namespace

FlatAutomaton::FlatAutomaton(const Application &app)
{
    SPARSEAP_PHASE("flatten");
    const size_t n = app.totalStates();
    owned_.symbols.reserve(n);
    owned_.reporting.reserve(n);
    owned_.start.reserve(n);
    owned_.succ_begin.reserve(n + 1);

    size_t edge_count = 0;
    for (const auto &nfa : app.nfas())
        for (const auto &s : nfa.states())
            edge_count += s.successors.size();
    owned_.succ.reserve(edge_count);

    for (uint32_t ni = 0; ni < app.nfaCount(); ++ni) {
        const Nfa &nfa = app.nfa(ni);
        SPARSEAP_ASSERT(nfa.finalized(), "FlatAutomaton needs finalized NFAs");
        const GlobalStateId base = app.nfaOffset(ni);
        for (StateId si = 0; si < nfa.size(); ++si) {
            const State &st = nfa.state(si);
            owned_.symbols.push_back(st.symbols);
            owned_.reporting.push_back(st.reporting ? 1 : 0);
            owned_.start.push_back(st.start);
            owned_.succ_begin.push_back(
                static_cast<uint32_t>(owned_.succ.size()));
            for (StateId t : st.successors)
                owned_.succ.push_back(base + t);
        }
    }
    owned_.succ_begin.push_back(static_cast<uint32_t>(owned_.succ.size()));
    install();
}

FlatAutomaton::FlatAutomaton(Csr csr)
{
    SPARSEAP_ASSERT(csr.reporting.size() == csr.symbols.size() &&
                        csr.start.size() == csr.symbols.size() &&
                        csr.succBegin.size() == csr.symbols.size() + 1 &&
                        csr.succBegin.back() == csr.succ.size(),
                    "malformed FlatAutomaton CSR");
    owned_.symbols = std::move(csr.symbols);
    owned_.reporting = std::move(csr.reporting);
    owned_.start = std::move(csr.start);
    owned_.succ_begin = std::move(csr.succBegin);
    owned_.succ = std::move(csr.succ);
    install();
}

void
FlatAutomaton::install()
{
    for (GlobalStateId s = 0; s < owned_.start.size(); ++s) {
        if (owned_.start[s] == StartKind::AllInput)
            owned_.all_input_starts.push_back(s);
        else if (owned_.start[s] == StartKind::StartOfData)
            owned_.sod_starts.push_back(s);
    }
    symbols_ = owned_.symbols;
    reporting_ = owned_.reporting;
    start_ = owned_.start;
    succ_begin_ = owned_.succ_begin;
    succ_ = owned_.succ;
    sod_starts_ = owned_.sod_starts;
    all_input_starts_ = owned_.all_input_starts;

    computeSymbolClasses();
    class_rep_ = owned_.class_rep;

    // One start-dispatch row per class instead of one per byte:
    // equivalent bytes select the same start states by definition, so
    // the 256 dispatch vectors of the old layout were #classes distinct
    // vectors stored up to 256 times. Stored as a CSR so a loaded
    // automaton can alias the same layout inside a file mapping.
    owned_.start_table_begin.reserve(class_count_ + 1);
    owned_.start_table_begin.push_back(0);
    for (size_t c = 0; c < class_count_; ++c) {
        for (GlobalStateId gid : owned_.all_input_starts) {
            if (owned_.symbols[gid].test(owned_.class_rep[c]))
                owned_.start_table.push_back(gid);
        }
        owned_.start_table_begin.push_back(
            static_cast<uint32_t>(owned_.start_table.size()));
    }
    start_table_begin_ = owned_.start_table_begin;
    start_table_ = owned_.start_table;
}

FlatAutomaton::FlatAutomaton(const Parts &parts)
    : backing_(parts.backing), symbols_(parts.symbols),
      reporting_(parts.reporting), start_(parts.start),
      succ_begin_(parts.succBegin), succ_(parts.succ),
      start_table_begin_(parts.startTableBegin),
      start_table_(parts.startTable), sod_starts_(parts.sodStarts),
      all_input_starts_(parts.allInputStarts), class_rep_(parts.classRep),
      class_count_(parts.classCount)
{
    SPARSEAP_ASSERT(parts.classOf.size() == 256,
                    "malformed FlatAutomaton parts");
    std::copy(parts.classOf.begin(), parts.classOf.end(),
              class_of_.begin());

    // Install the dense view straight from the decoded sections — a
    // stored automaton always carries one, so nothing is ever rebuilt.
    std::call_once(dense_once_, [&] {
        auto dv = std::make_unique<DenseView>();
        static_cast<DenseArrays &>(*dv) = parts.dense;
        dv->stride = DenseView::strideFor(dv->words);
        dv->classes = class_count_;
        dv->classOf = class_of_;
        computeDerivedArrays(*dv);
        dense_ = std::move(dv);
    });
}

FlatAutomaton::Parts
FlatAutomaton::parts() const
{
    Parts p;
    p.classCount = static_cast<uint32_t>(class_count_);
    p.classOf = {class_of_.data(), class_of_.size()};
    p.classRep = class_rep_;
    p.symbols = symbols_;
    p.reporting = reporting_;
    p.start = start_;
    p.succBegin = succ_begin_;
    p.succ = succ_;
    p.startTableBegin = start_table_begin_;
    p.startTable = start_table_;
    p.sodStarts = sod_starts_;
    p.allInputStarts = all_input_starts_;
    p.dense = denseView();
    p.backing = backing_;
    return p;
}

std::shared_ptr<const HotDfa>
FlatAutomaton::ensureHotDfa() const
{
    return hot_dfa_.ensure(
        [this] { return HotDfa::build(*this, HotDfa::Limits{}); });
}

std::shared_ptr<const HotDfa>
FlatAutomaton::hotDfaIfBuilt() const
{
    return hot_dfa_.ifBuilt();
}

void
FlatAutomaton::attachHotDfa(std::shared_ptr<const HotDfa> dfa) const
{
    hot_dfa_.ensure([&dfa] { return std::move(dfa); });
}

std::shared_ptr<const HotDfa>
FlatAutomaton::ensureSplit() const
{
    return split_.ensure(
        [this] { return HotDfa::buildSplit(*this, HotDfa::Limits{}); });
}

std::shared_ptr<const HotDfa>
FlatAutomaton::splitIfBuilt() const
{
    return split_.ifBuilt();
}

std::optional<CoreDecision>
FlatAutomaton::decideCore(std::span<const uint8_t> calibration,
                          const Bitset256 &alphabet) const
{
    if (size() < Engine::kMinDenseStates ||
        calibration.size() < Engine::kProbeCycles)
        return coreDecision();
    decision_.ensure([&] {
        // Unfiltered steps: a lookahead step enqueues fewer states, so
        // it would measure less than the dense core's real rival.
        ExecCore core(*this);
        core.reset(alphabet, nullptr, /*install_starts=*/true);
        CoreDecision d;
        for (size_t i = 0; i < Engine::kProbeCycles; ++i) {
            core.step(calibration[i], i, nullptr);
            d.work += core.lastStepWork();
        }
        d.threshold = Engine::denseWorkThreshold(size());
        d.dense = d.work >= d.threshold;
        if (d.dense && size() > Engine::kMaxAutoDfaStates)
            d.table = CoreDecision::Table::AboveCap;
        debugLog("core decision over ", size(), " states: ",
                 d.describe());
        return std::optional<CoreDecision>(d);
    });
    return coreDecision();
}

std::optional<CoreDecision>
FlatAutomaton::coreDecision() const
{
    std::optional<CoreDecision> d = decision_.ifBuilt();
    const auto &slot = d && d->dense ? hot_dfa_ : split_;
    if (d && d->table == CoreDecision::Table::Pending &&
        slot.ready.load(std::memory_order_acquire))
        d->table = slot.value ? CoreDecision::Table::Built
                              : CoreDecision::Table::Bailed;
    return d;
}

std::shared_ptr<const HotDfa>
FlatAutomaton::decidedTable() const
{
    const std::optional<CoreDecision> d = decision_.ifBuilt();
    if (!d || d->table == CoreDecision::Table::AboveCap)
        return nullptr;
    return d->dense ? ensureHotDfa() : ensureSplit();
}

std::string
CoreDecision::describe() const
{
    static constexpr const char *kTable[] = {
        "pending", "built", "bailed", "above the size cap"};
    return detail::concat(
        dense ? "dense" : "sparse", " core (work ", work, " = ",
        (work * 100 + threshold / 2) / threshold, "% of threshold ",
        threshold, "), ", dense ? "DFA " : "split ",
        kTable[static_cast<size_t>(table)]);
}

void
FlatAutomaton::computeSymbolClasses()
{
    // Partition refinement over the byte alphabet: start with one class
    // and split it by every *distinct* symbol-set (duplicate sets refine
    // identically, and real automata draw their sets from a small pool).
    // New class ids are assigned in order of first byte occurrence, so
    // the map is deterministic and classes are sorted by their smallest
    // member byte.
    class_of_.fill(0);
    class_count_ = 1;

    std::unordered_map<uint64_t, std::vector<const SymbolSet *>> seen;
    seen.reserve(256);
    std::array<int16_t, 512> remap;
    std::array<uint8_t, 256> next_class;

    for (const SymbolSet &sym : symbols_) {
        if (class_count_ == 256)
            break; // fully split; no further refinement possible
        auto &bucket = seen[sym.hash()];
        const bool dup = std::any_of(
            bucket.begin(), bucket.end(),
            [&](const SymbolSet *p) { return *p == sym; });
        if (dup)
            continue;
        bucket.push_back(&sym);

        remap.fill(-1);
        uint16_t next = 0;
        for (unsigned b = 0; b < 256; ++b) {
            const unsigned key =
                class_of_[b] * 2u +
                (sym.test(static_cast<uint8_t>(b)) ? 1u : 0u);
            if (remap[key] < 0)
                remap[key] = static_cast<int16_t>(next++);
            next_class[b] = static_cast<uint8_t>(remap[key]);
        }
        class_of_ = next_class;
        class_count_ = next;
    }

    owned_.class_rep.assign(class_count_, 0);
    std::vector<uint8_t> have(class_count_, 0);
    for (unsigned b = 0; b < 256; ++b) {
        if (!have[class_of_[b]]) {
            have[class_of_[b]] = 1;
            owned_.class_rep[class_of_[b]] = static_cast<uint8_t>(b);
        }
    }
}

const FlatAutomaton::DenseView &
FlatAutomaton::denseView() const
{
    std::call_once(dense_once_, [this] {
        auto dv = std::make_unique<DenseView>();
        DenseView::Owned &own = dv->owned;
        const size_t n = size();
        dv->words = wordsForBits(n);
        dv->stride = DenseView::strideFor(dv->words);
        dv->classes = class_count_;
        dv->classOf = class_of_;
        own.accept.assign(dv->classes * dv->stride, 0);
        own.reporting.assign(dv->words, 0);
        own.allInputStarts.assign(dv->words, 0);
        own.sodStarts.assign(dv->words, 0);

        for (GlobalStateId s = 0; s < n; ++s) {
            const Bitset256 &sym = symbols_[s];
            if (dv->classes < 64) {
                // Few classes: probe one representative byte per row —
                // cheaper than walking every set bit of a wide set.
                for (size_t c = 0; c < class_count_; ++c) {
                    if (sym.test(class_rep_[c]))
                        setWordBit(own.accept.data() + c * dv->stride, s);
                }
            } else {
                // Transpose the 256-bit symbol set: for every accepted
                // byte b, set bit s of b's row (equivalent bytes simply
                // re-set the same bit). Iterate set bits of the four
                // symbol-set words instead of probing all 256 symbols.
                forEachSetBit(
                    std::span<const uint64_t>(sym.words), [&](size_t b) {
                        setWordBit(own.accept.data() +
                                       dv->classOf[b] * dv->stride,
                                   s);
                    });
            }
            if (reporting_[s])
                setWordBit(own.reporting.data(), s);
        }
        for (GlobalStateId s : all_input_starts_)
            setWordBit(own.allInputStarts.data(), s);
        for (GlobalStateId s : sod_starts_)
            setWordBit(own.sodStarts.data(), s);

        own.latchable.assign(dv->words, 0);
        for (GlobalStateId s = 0; s < n; ++s) {
            if (start_[s] != StartKind::None || reporting_[s])
                continue;
            uint64_t universal = ~0ull;
            for (uint64_t w : symbols_[s].words)
                universal &= w;
            if (universal != ~0ull)
                continue;
            const auto succ = successors(s);
            if (std::find(succ.begin(), succ.end(), s) != succ.end())
                setWordBit(own.latchable.data(), s);
        }

        // Word-level successor CSR. Successor lists are built in NFA
        // state order, which is nondecreasing in target word per state
        // often enough that grouping is a single linear merge. Bits of
        // always-enabled start states are dropped from the masks — the
        // start dispatch below keeps them active without ever putting
        // them in the dynamic enabled vector.
        own.succBegin.reserve(n + 1);
        own.succBegin.push_back(0);
        std::vector<GlobalStateId> sorted;
        for (GlobalStateId s = 0; s < n; ++s) {
            const auto succ = successors(s);
            sorted.assign(succ.begin(), succ.end());
            std::sort(sorted.begin(), sorted.end());
            for (size_t k = 0; k < sorted.size();) {
                const uint32_t word = sorted[k] >> 6;
                uint64_t mask = 0;
                for (; k < sorted.size() && (sorted[k] >> 6) == word; ++k)
                    mask |= 1ull << (sorted[k] & 63);
                mask &= ~own.allInputStarts[word];
                if (mask == 0)
                    continue;
                own.succWordIdx.push_back(word);
                own.succWordMask.push_back(mask);
            }
            own.succBegin.push_back(
                static_cast<uint32_t>(own.succWordIdx.size()));
        }

        // Per-class start dispatch (see the DenseView doc): reporting
        // starts as per-word activation masks in ascending word order
        // (the sweep merges them with the live dynamic words to emit
        // reports in state order), non-reporting starts as one pooled
        // successor-contribution list per class.
        own.startBegin.reserve(dv->classes + 1);
        own.startBegin.push_back(0);
        own.startSuccBegin.reserve(dv->classes + 1);
        own.startSuccBegin.push_back(0);
        WordVector contrib(dv->words, 0);
        for (size_t c = 0; c < dv->classes; ++c) {
            const uint64_t *row = own.accept.data() + c * dv->stride;
            for (size_t w = 0; w < dv->words; ++w) {
                const uint64_t m = row[w] & own.allInputStarts[w] &
                                   own.reporting[w];
                if (m != 0) {
                    own.startWordIdx.push_back(
                        static_cast<uint32_t>(w));
                    own.startWordMask.push_back(m);
                }
            }
            own.startBegin.push_back(
                static_cast<uint32_t>(own.startWordIdx.size()));

            std::fill(contrib.begin(), contrib.end(), 0);
            for (GlobalStateId s : all_input_starts_) {
                if (reporting_[s] || !symbols_[s].test(class_rep_[c]))
                    continue;
                for (uint32_t k = own.succBegin[s];
                     k < own.succBegin[s + 1]; ++k)
                    contrib[own.succWordIdx[k]] |= own.succWordMask[k];
            }
            for (size_t w = 0; w < dv->words; ++w) {
                if (contrib[w] != 0) {
                    own.startSuccWordIdx.push_back(
                        static_cast<uint32_t>(w));
                    own.startSuccWordMask.push_back(contrib[w]);
                }
            }
            own.startSuccBegin.push_back(
                static_cast<uint32_t>(own.startSuccWordIdx.size()));
        }

        dv->accept = own.accept;
        dv->reporting = own.reporting;
        dv->allInputStarts = own.allInputStarts;
        dv->sodStarts = own.sodStarts;
        dv->latchable = own.latchable;
        dv->succBegin = own.succBegin;
        dv->succWordIdx = own.succWordIdx;
        dv->succWordMask = own.succWordMask;
        dv->startBegin = own.startBegin;
        dv->startWordIdx = own.startWordIdx;
        dv->startWordMask = own.startWordMask;
        dv->startSuccBegin = own.startSuccBegin;
        dv->startSuccWordIdx = own.startSuccWordIdx;
        dv->startSuccWordMask = own.startSuccWordMask;
        computeDerivedArrays(*dv);
        dense_ = std::move(dv);
    });
    return *dense_;
}

std::span<const uint64_t>
FlatAutomaton::continuationFolds() const
{
    std::call_once(continuation_once_, [this] {
        constexpr uint64_t kAll = ~uint64_t{0};
        const size_t n = size();
        std::vector<uint8_t> self_loop(n, 0);
        for (GlobalStateId s = 0; s < n; ++s) {
            const auto succ = successors(s);
            self_loop[s] = std::find(succ.begin(), succ.end(), s) !=
                           succ.end();
        }
        continuation_.assign(n, 0);
        for (GlobalStateId t = 0; t < n; ++t) {
            uint64_t fold = reporting(t) ? kAll : 0;
            for (GlobalStateId u : successors(t)) {
                if (fold == kAll)
                    break;
                fold |= self_loop[u] ? kAll : symbols(u).fold64();
            }
            continuation_[t] = fold;
        }
    });
    return continuation_;
}

} // namespace sparseap
