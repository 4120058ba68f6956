#include "store/artifact.h"

#include <algorithm>

#include "common/word_vector.h"
#include "sim/hot_dfa.h"
#include "telemetry/metrics.h"

namespace sparseap {
namespace store {
namespace {

template <typename T>
std::span<const T>
spanOf(const std::vector<T> &v)
{
    return {v.data(), v.size()};
}

/** Fetch a required typed section; fail with a named error otherwise. */
template <typename T>
bool
grab(const BlobView &blob, uint32_t id, std::span<const T> *out,
     std::string *error, const char *what)
{
    const SectionEntry *e = blob.findSection(id);
    if (e == nullptr) {
        *error = std::string("missing section: ") + what;
        return false;
    }
    *out = blob.sectionAs<T>(id);
    if (e->size != 0 && out->empty()) {
        *error = std::string("malformed section (element size): ") + what;
        return false;
    }
    return true;
}

/** Fetch a required one-element POD meta section. */
template <typename T>
bool
grabMeta(const BlobView &blob, uint32_t id, const T **out,
         std::string *error, const char *what)
{
    std::span<const T> s;
    if (!grab(blob, id, &s, error, what))
        return false;
    if (s.size() != 1) {
        *error = std::string("malformed meta section: ") + what;
        return false;
    }
    *out = s.data();
    return true;
}

bool
sizeIs(size_t got, size_t want, std::string *error, const char *what)
{
    if (got == want)
        return true;
    *error = std::string("inconsistent section size: ") + what + " has " +
             std::to_string(got) + " elements, expected " +
             std::to_string(want);
    return false;
}

// The two range checks below walk whole sections on every load. They
// are branch-free reductions rather than early-exit scans, so the loop
// bodies stay vectorizable; a valid blob is the common case.

/** Fail unless every entry of @p ids is below @p bound. */
template <typename T>
bool
allBelow(std::span<const T> ids, uint64_t bound, std::string *error,
         const char *what)
{
    T top = 0;
    for (const T id : ids)
        top = std::max(top, id);
    if (ids.empty() || top < bound)
        return true;
    *error = std::string("index out of range: ") + what + " holds " +
             std::to_string(top) + ", bound " + std::to_string(bound);
    return false;
}

/** Fail if mask k, which covers word @p idx[k] of a state-set row,
 *  sets one of the @p tail bits of word @p last: the bits of states
 *  past the automaton's last state. */
bool
tailClear(std::span<const uint32_t> idx, std::span<const uint64_t> masks,
          uint64_t last, uint64_t tail, std::string *error,
          const char *what)
{
    uint64_t stray = 0;
    for (size_t k = 0; k < masks.size(); ++k)
        stray |= idx[k] == last ? masks[k] & tail : 0;
    if (stray == 0)
        return true;
    *error = std::string("state out of range: ") + what +
             " sets a bit past the last state";
    return false;
}

/** Fail unless @p begin is nondecreasing and ends at @p size. */
bool
csrOk(std::span<const uint32_t> begin, size_t size, std::string *error,
      const char *what)
{
    bool sorted = true;
    for (size_t i = 1; i < begin.size(); ++i)
        sorted &= begin[i - 1] <= begin[i];
    if (sorted && begin.back() == size)
        return true;
    *error = std::string("malformed CSR offsets: ") + what +
             " decreases or does not end at its array size";
    return false;
}

} // namespace

// ------------------------------------------------------ FlatAutomaton --

void
encodeFlatAutomaton(const FlatAutomaton &fa, BlobWriter &w, uint32_t base)
{
    const FlatAutomaton::Parts p = fa.parts();

    FaMeta meta{};
    meta.states = p.symbols.size();
    meta.succCount = p.succ.size();
    meta.classCount = p.classCount;
    meta.denseWords = p.dense.words;
    w.addSection(base + kFaMeta, &meta, sizeof(meta),
                 static_cast<uint32_t>(sizeof(meta)));

    w.addSpan(base + kFaSymbols, p.symbols);
    w.addSpan(base + kFaReporting, p.reporting);
    w.addSpan(base + kFaStart, p.start);
    w.addSpan(base + kFaSuccBegin, p.succBegin);
    w.addSpan(base + kFaSucc, p.succ);
    w.addSpan(base + kFaStartTableBegin, p.startTableBegin);
    w.addSpan(base + kFaStartTable, p.startTable);
    w.addSpan(base + kFaSodStarts, p.sodStarts);
    w.addSpan(base + kFaAllInputStarts, p.allInputStarts);
    w.addSpan(base + kFaClassOf, p.classOf);
    w.addSpan(base + kFaClassRep, p.classRep);

    const FlatAutomaton::DenseArrays &d = p.dense;
    w.addSpan(base + kFaDenseAccept, d.accept);
    w.addSpan(base + kFaDenseReporting, d.reporting);
    w.addSpan(base + kFaDenseAllInputStarts, d.allInputStarts);
    w.addSpan(base + kFaDenseSodStarts, d.sodStarts);
    w.addSpan(base + kFaDenseLatchable, d.latchable);
    w.addSpan(base + kFaDenseSuccBegin, d.succBegin);
    w.addSpan(base + kFaDenseSuccWordIdx, d.succWordIdx);
    w.addSpan(base + kFaDenseSuccWordMask, d.succWordMask);
    w.addSpan(base + kFaDenseStartBegin, d.startBegin);
    w.addSpan(base + kFaDenseStartWordIdx, d.startWordIdx);
    w.addSpan(base + kFaDenseStartWordMask, d.startWordMask);
    w.addSpan(base + kFaDenseStartSuccBegin, d.startSuccBegin);
    w.addSpan(base + kFaDenseStartSuccWordIdx, d.startSuccWordIdx);
    w.addSpan(base + kFaDenseStartSuccWordMask, d.startSuccWordMask);

    // Persist the hot DFA when one had been determinized by encode time
    // (encodePreparedPartition forces the attempt for hot fragments).
    // Encoding never triggers subset construction itself: full-app
    // automata would blow the budget for nothing.
    if (const std::shared_ptr<const HotDfa> dfa = fa.hotDfaIfBuilt()) {
        const HotDfa::Parts dp = dfa->parts();
        DfaMeta dmeta{};
        dmeta.states = dp.states;
        dmeta.classes = dp.classes;
        dmeta.reportCount = dp.reportIds.size();
        w.addSection(base + kFaDfaMeta, &dmeta, sizeof(dmeta),
                     static_cast<uint32_t>(sizeof(dmeta)));
        w.addSpan(base + kFaDfaTable, dp.table);
        w.addSpan(base + kFaDfaReportBegin, dp.reportBegin);
        w.addSpan(base + kFaDfaReportIds, dp.reportIds);
        w.addSpan(base + kFaDfaSkipIndex, dp.skipIndex);
        w.addSpan(base + kFaDfaSkipBits, dp.skipBits);
    }
}

std::unique_ptr<FlatAutomaton>
decodeFlatAutomaton(const BlobView &blob, uint32_t base, std::string *error)
{
    // Every check records its failure, naming the section, in *error.
    const auto need = [&](uint32_t id, auto *out, const char *what) {
        return grab(blob, base + id, out, error, what);
    };
    const auto sized = [&](size_t got, size_t want, const char *what) {
        return sizeIs(got, want, error, what);
    };
    const auto below = [&](auto ids, uint64_t bound, const char *what) {
        return allBelow(ids, bound, error, what);
    };
    const auto csr = [&](std::span<const uint32_t> begin, size_t size,
                         const char *what) {
        return csrOk(begin, size, error, what);
    };

    const FaMeta *meta = nullptr;
    if (!grabMeta(blob, base + kFaMeta, &meta, error, "FaMeta"))
        return nullptr;
    if (meta->classCount < 1 || meta->classCount > 256) {
        *error = "FaMeta holds out-of-range values";
        return nullptr;
    }
    const size_t n = meta->states;
    const size_t classes = meta->classCount;

    FlatAutomaton::Parts p;
    p.classCount = meta->classCount;
    if (!need(kFaSymbols, &p.symbols, "symbols") ||
        !need(kFaReporting, &p.reporting, "reporting") ||
        !need(kFaStart, &p.start, "start") ||
        !need(kFaSuccBegin, &p.succBegin, "succBegin") ||
        !need(kFaSucc, &p.succ, "succ") ||
        !need(kFaStartTableBegin, &p.startTableBegin, "startTableBegin") ||
        !need(kFaStartTable, &p.startTable, "startTable") ||
        !need(kFaSodStarts, &p.sodStarts, "sodStarts") ||
        !need(kFaAllInputStarts, &p.allInputStarts, "allInputStarts") ||
        !need(kFaClassOf, &p.classOf, "classOf") ||
        !need(kFaClassRep, &p.classRep, "classRep")) {
        return nullptr;
    }
    if (!sized(p.symbols.size(), n, "symbols") ||
        !sized(p.reporting.size(), n, "reporting") ||
        !sized(p.start.size(), n, "start") ||
        !sized(p.succBegin.size(), n + 1, "succBegin") ||
        !sized(p.succ.size(), meta->succCount, "succ") ||
        !sized(p.classOf.size(), 256, "classOf") ||
        !sized(p.classRep.size(), classes, "classRep") ||
        !sized(p.startTableBegin.size(), classes + 1, "startTableBegin")) {
        return nullptr;
    }
    if (!csr(p.succBegin, p.succ.size(), "succBegin") ||
        !csr(p.startTableBegin, p.startTable.size(), "startTableBegin") ||
        !below(p.classOf, classes, "classOf") ||
        !below(p.succ, n, "succ") ||
        !below(p.startTable, n, "startTable") ||
        !below(p.sodStarts, n, "sodStarts") ||
        !below(p.allInputStarts, n, "allInputStarts")) {
        return nullptr;
    }

    FlatAutomaton::DenseArrays &d = p.dense;
    d.words = meta->denseWords;
    if (d.words != wordsForBits(n)) {
        *error = "dense row width disagrees with FaMeta";
        return nullptr;
    }
    if (!need(kFaDenseAccept, &d.accept, "dense accept") ||
        !need(kFaDenseReporting, &d.reporting, "dense reporting") ||
        !need(kFaDenseAllInputStarts, &d.allInputStarts,
              "dense allInputStarts") ||
        !need(kFaDenseSodStarts, &d.sodStarts, "dense sodStarts") ||
        !need(kFaDenseLatchable, &d.latchable, "dense latchable") ||
        !need(kFaDenseSuccBegin, &d.succBegin, "dense succBegin") ||
        !need(kFaDenseSuccWordIdx, &d.succWordIdx, "dense succWordIdx") ||
        !need(kFaDenseSuccWordMask, &d.succWordMask,
              "dense succWordMask") ||
        !need(kFaDenseStartBegin, &d.startBegin, "dense startBegin") ||
        !need(kFaDenseStartWordIdx, &d.startWordIdx,
              "dense startWordIdx") ||
        !need(kFaDenseStartWordMask, &d.startWordMask,
              "dense startWordMask") ||
        !need(kFaDenseStartSuccBegin, &d.startSuccBegin,
              "dense startSuccBegin") ||
        !need(kFaDenseStartSuccWordIdx, &d.startSuccWordIdx,
              "dense startSuccWordIdx") ||
        !need(kFaDenseStartSuccWordMask, &d.startSuccWordMask,
              "dense startSuccWordMask")) {
        return nullptr;
    }
    const size_t stride = FlatAutomaton::DenseView::strideFor(d.words);
    if (!sized(d.accept.size(), classes * stride, "dense accept") ||
        !sized(d.reporting.size(), d.words, "dense reporting") ||
        !sized(d.allInputStarts.size(), d.words, "dense allInputStarts") ||
        !sized(d.sodStarts.size(), d.words, "dense sodStarts") ||
        !sized(d.latchable.size(), d.words, "dense latchable") ||
        !sized(d.succBegin.size(), n + 1, "dense succBegin") ||
        !sized(d.succWordMask.size(), d.succWordIdx.size(),
               "dense succWordMask") ||
        !sized(d.startBegin.size(), classes + 1, "dense startBegin") ||
        !sized(d.startWordMask.size(), d.startWordIdx.size(),
               "dense startWordMask") ||
        !sized(d.startSuccBegin.size(), classes + 1,
               "dense startSuccBegin") ||
        !sized(d.startSuccWordMask.size(), d.startSuccWordIdx.size(),
               "dense startSuccWordMask")) {
        return nullptr;
    }
    if (!csr(d.succBegin, d.succWordIdx.size(), "dense succBegin") ||
        !csr(d.startBegin, d.startWordIdx.size(), "dense startBegin") ||
        !csr(d.startSuccBegin, d.startSuccWordIdx.size(),
             "dense startSuccBegin") ||
        !below(d.succWordIdx, d.words, "dense succWordIdx") ||
        !below(d.startWordIdx, d.words, "dense startWordIdx") ||
        !below(d.startSuccWordIdx, d.words, "dense startSuccWordIdx")) {
        return nullptr;
    }
    // A bit for a state >= n in word n / 64 (the last, partial word;
    // none when 64 divides n) would send DenseCore's successor walk past
    // the end of succBegin. A whole row's mask of that word is the
    // row's subspan from it.
    const uint32_t last[] = {static_cast<uint32_t>(n / 64)};
    const uint64_t tail = n % 64 == 0 ? 0 : ~uint64_t{0} << (n % 64);
    const auto clear = [&](std::span<const uint32_t> idx,
                           std::span<const uint64_t> masks,
                           const char *what) {
        return tailClear(idx, masks, last[0], tail, error, what);
    };
    if (!clear(last, d.sodStarts.subspan(last[0]), "dense sodStarts") ||
        !clear(last, d.allInputStarts.subspan(last[0]),
               "dense allInputStarts") ||
        !clear(d.succWordIdx, d.succWordMask, "dense succWordMask") ||
        !clear(d.startWordIdx, d.startWordMask, "dense startWordMask") ||
        !clear(d.startSuccWordIdx, d.startSuccWordMask,
               "dense startSuccWordMask")) {
        return nullptr;
    }

    p.backing = blob.backing();
    auto fa = std::make_unique<FlatAutomaton>(p);

    // Optional hot-DFA block: absent for automata that were never
    // determinized (or whose construction bailed out); all-or-nothing
    // when present.
    if (blob.findSection(base + kFaDfaMeta) == nullptr)
        return fa;
    const DfaMeta *dmeta = nullptr;
    if (!grabMeta(blob, base + kFaDfaMeta, &dmeta, error, "DfaMeta"))
        return nullptr;
    HotDfa::Parts dp;
    dp.states = dmeta->states;
    dp.classes = dmeta->classes;
    if (dp.states == 0 || dp.classes != classes) {
        *error = "DfaMeta disagrees with the automaton's classes";
        return nullptr;
    }
    if (!need(kFaDfaTable, &dp.table, "dfa table") ||
        !need(kFaDfaReportBegin, &dp.reportBegin, "dfa reportBegin") ||
        !need(kFaDfaReportIds, &dp.reportIds, "dfa reportIds") ||
        !need(kFaDfaSkipIndex, &dp.skipIndex, "dfa skipIndex") ||
        !need(kFaDfaSkipBits, &dp.skipBits, "dfa skipBits")) {
        return nullptr;
    }
    if (!sized(dp.table.size(), dp.states * dp.classes, "dfa table") ||
        !sized(dp.reportBegin.size(), dp.states + 1, "dfa reportBegin") ||
        !sized(dp.reportIds.size(), dmeta->reportCount, "dfa reportIds") ||
        !sized(dp.skipIndex.size(), dp.states, "dfa skipIndex")) {
        return nullptr;
    }
    if (dp.skipBits.size() % 4 != 0) {
        *error = "dfa skipBits is not a whole number of masks";
        return nullptr;
    }
    // skipIndex holds 0 (not skippable) or 1 + a mask number.
    if (!csr(dp.reportBegin, dp.reportIds.size(), "dfa reportBegin") ||
        !below(dp.table, dp.states, "dfa table") ||
        !below(dp.reportIds, n, "dfa reportIds") ||
        !below(dp.skipIndex, dp.skipBits.size() / 4 + 1, "dfa skipIndex")) {
        return nullptr;
    }
    dp.backing = blob.backing();
    fa->attachHotDfa(HotDfa::fromParts(dp, *fa));

    static telemetry::Counter dfa_warm("store.dfa_warm");
    dfa_warm.add(1);
    return fa;
}

// -------------------------------------------------------- Application --

void
encodeApplication(const Application &app, BlobWriter &w, uint32_t base)
{
    AppMeta meta{};
    meta.nfaCount = app.nfaCount();
    meta.stateCount = app.totalStates();
    meta.group = static_cast<uint8_t>(app.group());

    std::string names;
    std::vector<uint32_t> name_begin;
    std::vector<uint32_t> state_begin;
    std::vector<SymbolSet> symbols;
    std::vector<uint8_t> start;
    std::vector<uint8_t> reporting;
    std::vector<uint32_t> succ_begin;
    std::vector<StateId> succ;
    name_begin.reserve(app.nfaCount() + 1);
    state_begin.reserve(app.nfaCount() + 1);
    symbols.reserve(app.totalStates());
    start.reserve(app.totalStates());
    reporting.reserve(app.totalStates());
    succ_begin.reserve(app.totalStates() + 1);

    name_begin.push_back(0);
    state_begin.push_back(0);
    for (const Nfa &nfa : app.nfas()) {
        names += nfa.name();
        name_begin.push_back(static_cast<uint32_t>(names.size()));
        state_begin.push_back(state_begin.back() +
                              static_cast<uint32_t>(nfa.size()));
        for (const State &st : nfa.states()) {
            symbols.push_back(st.symbols);
            start.push_back(static_cast<uint8_t>(st.start));
            reporting.push_back(st.reporting ? 1 : 0);
            succ_begin.push_back(static_cast<uint32_t>(succ.size()));
            succ.insert(succ.end(), st.successors.begin(),
                        st.successors.end());
        }
    }
    succ_begin.push_back(static_cast<uint32_t>(succ.size()));
    meta.succCount = succ.size();

    w.addSection(base + kAppMeta, &meta, sizeof(meta),
                 static_cast<uint32_t>(sizeof(meta)));
    w.addString(base + kAppName, app.name());
    w.addString(base + kAppAbbr, app.abbr());
    w.addSpan(base + kAppNfaNameBegin, spanOf(name_begin));
    w.addString(base + kAppNfaNames, names);
    w.addSpan(base + kAppNfaStateBegin, spanOf(state_begin));
    w.addSpan(base + kAppSymbols, spanOf(symbols));
    w.addSpan(base + kAppStart, spanOf(start));
    w.addSpan(base + kAppReporting, spanOf(reporting));
    w.addSpan(base + kAppSuccBegin, spanOf(succ_begin));
    w.addSpan(base + kAppSucc, spanOf(succ));
}

bool
decodeApplication(const BlobView &blob, uint32_t base, Application *out,
                  std::string *error)
{
    const AppMeta *meta = nullptr;
    if (!grabMeta(blob, base + kAppMeta, &meta, error, "AppMeta"))
        return false;
    if (meta->group > static_cast<uint8_t>(ResourceGroup::Low)) {
        *error = "AppMeta holds an out-of-range resource group";
        return false;
    }

    const std::span<const uint8_t> name_bytes =
        blob.sectionBytes(base + kAppName);
    const std::span<const uint8_t> abbr_bytes =
        blob.sectionBytes(base + kAppAbbr);
    const std::span<const uint8_t> names_bytes =
        blob.sectionBytes(base + kAppNfaNames);
    if (blob.findSection(base + kAppName) == nullptr ||
        blob.findSection(base + kAppAbbr) == nullptr ||
        blob.findSection(base + kAppNfaNames) == nullptr) {
        *error = "missing application name sections";
        return false;
    }

    std::span<const uint32_t> name_begin, state_begin, succ_begin;
    std::span<const SymbolSet> symbols;
    std::span<const uint8_t> start, reporting;
    std::span<const StateId> succ;
    if (!grab(blob, base + kAppNfaNameBegin, &name_begin, error,
              "nfaNameBegin") ||
        !grab(blob, base + kAppNfaStateBegin, &state_begin, error,
              "nfaStateBegin") ||
        !grab(blob, base + kAppSymbols, &symbols, error, "app symbols") ||
        !grab(blob, base + kAppStart, &start, error, "app start") ||
        !grab(blob, base + kAppReporting, &reporting, error,
              "app reporting") ||
        !grab(blob, base + kAppSuccBegin, &succ_begin, error,
              "app succBegin") ||
        !grab(blob, base + kAppSucc, &succ, error, "app succ")) {
        return false;
    }
    const size_t nfas = meta->nfaCount;
    const size_t n = meta->stateCount;
    if (!sizeIs(name_begin.size(), nfas + 1, error, "nfaNameBegin") ||
        !sizeIs(state_begin.size(), nfas + 1, error, "nfaStateBegin") ||
        !sizeIs(symbols.size(), n, error, "app symbols") ||
        !sizeIs(start.size(), n, error, "app start") ||
        !sizeIs(reporting.size(), n, error, "app reporting") ||
        !sizeIs(succ_begin.size(), n + 1, error, "app succBegin") ||
        !sizeIs(succ.size(), meta->succCount, error, "app succ")) {
        return false;
    }
    if (name_begin.back() != names_bytes.size() ||
        state_begin.back() != n || succ_begin.back() != succ.size()) {
        *error = "application CSR end offsets disagree with array sizes";
        return false;
    }

    Application app(
        std::string(reinterpret_cast<const char *>(name_bytes.data()),
                    name_bytes.size()),
        std::string(reinterpret_cast<const char *>(abbr_bytes.data()),
                    abbr_bytes.size()));
    app.setGroup(static_cast<ResourceGroup>(meta->group));
    const char *names = reinterpret_cast<const char *>(names_bytes.data());
    for (size_t ni = 0; ni < nfas; ++ni) {
        if (name_begin[ni] > name_begin[ni + 1] ||
            state_begin[ni] > state_begin[ni + 1]) {
            *error = "application CSR offsets are not monotone";
            return false;
        }
        Nfa nfa(std::string(names + name_begin[ni],
                            name_begin[ni + 1] - name_begin[ni]));
        const uint32_t lo = state_begin[ni];
        const uint32_t hi = state_begin[ni + 1];
        const StateId size = hi - lo;
        for (uint32_t g = lo; g < hi; ++g) {
            if (start[g] > static_cast<uint8_t>(StartKind::StartOfData)) {
                *error = "application state holds an invalid start kind";
                return false;
            }
            nfa.addState(symbols[g], static_cast<StartKind>(start[g]),
                         reporting[g] != 0);
        }
        for (uint32_t g = lo; g < hi; ++g) {
            if (succ_begin[g] > succ_begin[g + 1]) {
                *error = "application CSR offsets are not monotone";
                return false;
            }
            for (uint32_t k = succ_begin[g]; k < succ_begin[g + 1]; ++k) {
                if (succ[k] >= size) {
                    *error = "application successor id out of range";
                    return false;
                }
                nfa.addEdge(g - lo, succ[k]);
            }
        }
        // require_start = false: cold fragments legitimately have none.
        nfa.finalize(/*require_start=*/false);
        app.addNfa(std::move(nfa));
    }
    *out = std::move(app);
    return true;
}

// ------------------------------------------------------------ Profile --

void
encodeProfile(const HotColdProfile &profile, size_t prefix_len,
              BlobWriter &w)
{
    ProfileMeta meta{};
    meta.states = profile.hot.size();
    meta.prefixLen = prefix_len;
    meta.hotCount = profile.hotCount();
    w.addSection(kProfileMeta, &meta, sizeof(meta),
                 static_cast<uint32_t>(sizeof(meta)));

    WordVector words(wordsForBits(profile.hot.size()), 0);
    for (size_t s = 0; s < profile.hot.size(); ++s)
        if (profile.hot[s])
            setWordBit(words.data(), s);
    w.addSpan(kProfileHotWords,
              std::span<const uint64_t>(words.data(), words.size()));
}

bool
decodeProfile(const BlobView &blob, HotColdProfile *out,
              size_t *prefix_len, std::string *error)
{
    const ProfileMeta *meta = nullptr;
    if (!grabMeta(blob, kProfileMeta, &meta, error, "ProfileMeta"))
        return false;
    std::span<const uint64_t> words;
    if (!grab(blob, kProfileHotWords, &words, error, "hotWords"))
        return false;
    if (!sizeIs(words.size(), wordsForBits(meta->states), error,
                "hotWords"))
        return false;

    HotColdProfile profile;
    profile.hot.assign(meta->states, false);
    for (size_t s = 0; s < meta->states; ++s)
        profile.hot[s] = testWordBit(words.data(), s);
    if (profile.hotCount() != meta->hotCount) {
        *error = "profile hot count disagrees with the packed words";
        return false;
    }
    *out = std::move(profile);
    if (prefix_len != nullptr)
        *prefix_len = meta->prefixLen;
    return true;
}

// ---------------------------------------------------------- Partition --

void
encodePreparedPartition(const PreparedPartition &prep, size_t capacity,
                        BlobWriter &w)
{
    const PartitionedApp &part = prep.part;
    PartMeta meta{};
    meta.layerCount = prep.layers.k.size();
    meta.intermediateCount = part.intermediateCount;
    meta.hotOriginalReporting = part.hotOriginalReporting;
    meta.coldReporting = part.coldReporting;
    meta.batchCapacity = capacity;
    w.addSection(kPartMeta, &meta, sizeof(meta),
                 static_cast<uint32_t>(sizeof(meta)));

    w.addSpan(kPartLayers, spanOf(prep.layers.k));
    w.addSpan(kPartHotToOriginal, spanOf(part.hotToOriginal));
    w.addSpan(kPartIntermediateTarget, spanOf(part.intermediateTarget));
    w.addSpan(kPartColdToOriginal, spanOf(part.coldToOriginal));
    w.addSpan(kPartOriginalToCold, spanOf(part.originalToCold));
    w.addSpan(kPartColdNfaToOriginal, spanOf(part.coldNfaToOriginal));
    const std::vector<uint32_t> batches =
        coldBatchAssignment(part.cold, capacity);
    w.addSpan(kPartNfaBatch, spanOf(batches));

    encodeApplication(part.hot, w, kPartHotAppBase);
    encodeApplication(part.cold, w, kPartColdAppBase);
    // The hot fragment is exactly the compact, frequently-enabled
    // automaton determinization targets: force the (capped, one-shot)
    // attempt here so the DFA rides along in the blob and warm starts
    // skip subset construction.
    prep.hotAutomaton().ensureHotDfa();
    encodeFlatAutomaton(prep.hotAutomaton(), w, kPartHotFaBase);
}

bool
decodePreparedPartition(const BlobView &blob, PreparedPartition *out,
                        std::string *error)
{
    const PartMeta *meta = nullptr;
    if (!grabMeta(blob, kPartMeta, &meta, error, "PartMeta"))
        return false;

    PreparedPartition prep;
    std::span<const uint32_t> layers, cold_nfa_to_orig, nfa_batch;
    std::span<const GlobalStateId> hot_to_orig, inter_target,
        cold_to_orig, orig_to_cold;
    if (!grab(blob, kPartLayers, &layers, error, "layers") ||
        !grab(blob, kPartHotToOriginal, &hot_to_orig, error,
              "hotToOriginal") ||
        !grab(blob, kPartIntermediateTarget, &inter_target, error,
              "intermediateTarget") ||
        !grab(blob, kPartColdToOriginal, &cold_to_orig, error,
              "coldToOriginal") ||
        !grab(blob, kPartOriginalToCold, &orig_to_cold, error,
              "originalToCold") ||
        !grab(blob, kPartColdNfaToOriginal, &cold_nfa_to_orig, error,
              "coldNfaToOriginal") ||
        !grab(blob, kPartNfaBatch, &nfa_batch, error, "nfaBatch")) {
        return false;
    }
    if (!sizeIs(layers.size(), meta->layerCount, error, "layers"))
        return false;

    if (!decodeApplication(blob, kPartHotAppBase, &prep.part.hot, error) ||
        !decodeApplication(blob, kPartColdAppBase, &prep.part.cold,
                           error)) {
        return false;
    }
    if (!sizeIs(hot_to_orig.size(), prep.part.hot.totalStates(), error,
                "hotToOriginal") ||
        !sizeIs(inter_target.size(), prep.part.hot.totalStates(), error,
                "intermediateTarget") ||
        !sizeIs(cold_to_orig.size(), prep.part.cold.totalStates(), error,
                "coldToOriginal") ||
        !sizeIs(cold_nfa_to_orig.size(), prep.part.cold.nfaCount(), error,
                "coldNfaToOriginal") ||
        !sizeIs(nfa_batch.size(), prep.part.cold.nfaCount(), error,
                "nfaBatch")) {
        return false;
    }

    prep.layers.k.assign(layers.begin(), layers.end());
    prep.part.hotToOriginal.assign(hot_to_orig.begin(), hot_to_orig.end());
    prep.part.intermediateTarget.assign(inter_target.begin(),
                                        inter_target.end());
    prep.part.coldToOriginal.assign(cold_to_orig.begin(),
                                    cold_to_orig.end());
    prep.part.originalToCold.assign(orig_to_cold.begin(),
                                    orig_to_cold.end());
    prep.part.coldNfaToOriginal.assign(cold_nfa_to_orig.begin(),
                                       cold_nfa_to_orig.end());
    prep.part.intermediateCount = meta->intermediateCount;
    prep.part.hotOriginalReporting = meta->hotOriginalReporting;
    prep.part.coldReporting = meta->coldReporting;

    // The stored kPartNfaBatch assignment (validated above) is format
    // documentation: the runtime rebuilds its cold plan from the decoded
    // application so over-capacity warnings fire identically on the cold
    // and the warm path.
    std::unique_ptr<FlatAutomaton> hot_fa =
        decodeFlatAutomaton(blob, kPartHotFaBase, error);
    if (hot_fa == nullptr)
        return false;
    if (hot_fa->size() != prep.part.hot.totalStates()) {
        *error = "embedded hot automaton disagrees with the hot fragment";
        return false;
    }
    prep.hotFa = std::shared_ptr<const FlatAutomaton>(std::move(hot_fa));

    *out = std::move(prep);
    return true;
}

} // namespace store
} // namespace sparseap
