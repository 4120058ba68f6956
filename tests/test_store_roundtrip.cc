/**
 * @file
 * Artifact codec round-trips: a FlatAutomaton loaded (mmap, zero-copy)
 * from a store blob must report byte-identically to a freshly-built one
 * across every registered workload on the sparse and the dense core;
 * profiles and prepared partitions must survive encode/decode with
 * identical contents and identical pipeline results. Blobs whose
 * checksums are valid but whose contents are not (an out-of-range
 * index, a DFA block without its skip tables) must be rejected.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "store/artifact.h"
#include "store/cache.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

namespace fs = std::filesystem;
using store::BlobView;
using store::BlobWriter;

ReportList
sortedReports(const FlatAutomaton &fa, EngineMode mode,
              std::span<const uint8_t> input)
{
    Engine engine(fa, mode);
    ReportList r = engine.run(input).reports;
    std::sort(r.begin(), r.end());
    return r;
}

std::vector<uint8_t>
smallInput(const Workload &w, Rng &rng)
{
    size_t bytes = 1536;
    if (w.inputBytesCap > 0)
        bytes = std::min(bytes, w.inputBytesCap);
    return synthesizeInput(w.input, bytes, rng);
}

/** Round-trip @p fa through an on-disk blob (real mmap load). */
std::unique_ptr<FlatAutomaton>
reload(const FlatAutomaton &fa, const fs::path &dir, uint64_t digest)
{
    BlobWriter w(store::ArtifactKind::FlatAutomaton, digest);
    store::encodeFlatAutomaton(fa, w);
    const std::string path =
        (dir / (store::digestHex(digest) + ".apb")).string();
    std::string error;
    EXPECT_TRUE(w.commit(path, &error)) << error;
    auto blob = BlobView::open(path, &error);
    EXPECT_NE(blob, nullptr) << error;
    if (!blob)
        return nullptr;
    auto decoded = store::decodeFlatAutomaton(*blob, 0, &error);
    EXPECT_NE(decoded, nullptr) << error;
    return decoded;
}

TEST(StoreRoundtrip, FlatAutomatonAllWorkloadsAllModes)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "sparseap_roundtrip_fa";
    fs::create_directories(dir);

    Rng input_rng(20180621);
    uint64_t digest = 1;
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        const std::vector<uint8_t> input = smallInput(w, input_rng);

        const FlatAutomaton fresh(w.app);
        auto loaded = reload(fresh, dir, digest++);
        ASSERT_NE(loaded, nullptr) << entry.abbr;

        // Structure survives.
        EXPECT_EQ(loaded->size(), fresh.size()) << entry.abbr;
        EXPECT_EQ(loaded->symbolClassCount(), fresh.symbolClassCount());
        for (unsigned b = 0; b < 256; ++b) {
            EXPECT_EQ(loaded->symbolClass(static_cast<uint8_t>(b)),
                      fresh.symbolClass(static_cast<uint8_t>(b)));
        }

        // Identical reports in every execution mode.
        const ReportList want =
            sortedReports(fresh, EngineMode::Sparse, input);
        EXPECT_EQ(sortedReports(*loaded, EngineMode::Sparse, input), want)
            << entry.abbr << " sparse";
        EXPECT_EQ(sortedReports(*loaded, EngineMode::Dense, input), want)
            << entry.abbr << " dense";
    }
    fs::remove_all(dir);
}

TEST(StoreRoundtrip, FlatAutomatonDecodeRejectsForeignStructure)
{
    Workload w = generateWorkload("EM", 7, 5);
    const FlatAutomaton fa(w.app);
    BlobWriter bw(store::ArtifactKind::FlatAutomaton, 99);
    store::encodeFlatAutomaton(fa, bw);
    std::string error;
    auto blob = BlobView::fromBuffer(bw.finalize(), &error);
    ASSERT_NE(blob, nullptr) << error;

    // Valid blob, but decoding at a wrong base finds no sections.
    EXPECT_EQ(store::decodeFlatAutomaton(*blob, 1000, &error), nullptr);
    EXPECT_NE(error.find("missing"), std::string::npos) << error;
}

/**
 * Copy @p blob section by section through a fresh BlobWriter. @p edit
 * may rewrite a section's bytes, or return false to drop it. Checksums
 * are recomputed, so the copy passes BlobView validation and only the
 * decoder stands between it and the execution cores.
 */
std::shared_ptr<const BlobView>
rewriteBlob(const BlobView &blob,
            const std::function<bool(const store::SectionEntry &,
                                     std::vector<uint8_t> &)> &edit)
{
    BlobWriter w(blob.kind(), blob.digest());
    for (const store::SectionEntry &e : blob.sections()) {
        const std::span<const uint8_t> src = blob.sectionBytes(e.id);
        std::vector<uint8_t> bytes(src.begin(), src.end());
        if (edit(e, bytes))
            w.addSection(e.id, bytes.data(), bytes.size(), e.elemSize);
    }
    std::string error;
    auto copy = BlobView::fromBuffer(w.finalize(), &error);
    EXPECT_NE(copy, nullptr) << error;
    return copy;
}

/**
 * Blobs are hostile input: a checksummed blob whose indices point
 * outside the arrays they index, or whose dense masks set bits for
 * states past the last one, must be rejected with an error naming the
 * section, never adopted. Each case overwrites one element of one
 * section.
 */
TEST(StoreRoundtrip, DecodeRejectsOutOfRangeIndices)
{
    Workload w = generateWorkload("Bro217", 7, 5);
    // A one-state reporting start last, so the reporting-start dispatch
    // has an entry in the last dense word too.
    w.app.addNfa(compileRegex("a", "tail"));
    const FlatAutomaton fa(w.app);
    BlobWriter bw(store::ArtifactKind::FlatAutomaton, 0xbad);
    store::encodeFlatAutomaton(fa, bw);
    std::string error;
    auto blob = BlobView::fromBuffer(bw.finalize(), &error);
    ASSERT_NE(blob, nullptr) << error;
    ASSERT_NE(store::decodeFlatAutomaton(*blob, 0, &error), nullptr)
        << error;
    ASSERT_LT(fa.symbolClassCount(), 256u);

    const FlatAutomaton::Parts parts = fa.parts();
    const auto states = static_cast<uint32_t>(fa.size());
    // Dense masks: bit 63 of the last word names no state when 64 does
    // not divide N, and word-list entry k is the first in that word.
    const FlatAutomaton::DenseArrays &d = parts.dense;
    ASSERT_NE(states % 64, 0u);
    const size_t last = d.words - 1;
    const uint64_t stray = uint64_t{1} << 63;
    const auto inLastWord = [&](std::span<const uint32_t> idx) {
        return static_cast<size_t>(
            std::find(idx.begin(), idx.end(), last) - idx.begin());
    };
    const size_t succ_k = inLastWord(d.succWordIdx);
    const size_t start_k = inLastWord(d.startWordIdx);
    const size_t start_succ_k = inLastWord(d.startSuccWordIdx);
    ASSERT_LT(succ_k, d.succWordIdx.size());
    ASSERT_LT(start_k, d.startWordIdx.size());
    ASSERT_LT(start_succ_k, d.startSuccWordIdx.size());
    struct Case
    {
        const char *name; ///< expected in the error message
        uint32_t section;
        size_t index;
        uint64_t value;
    };
    const Case cases[] = {
        {"classOf", store::kFaClassOf, 0,
         static_cast<uint32_t>(fa.symbolClassCount())},
        {"succ", store::kFaSucc, 0, states},
        {"startTable", store::kFaStartTable, 0, states},
        {"allInputStarts", store::kFaAllInputStarts, 0, states},
        {"dense succWordIdx", store::kFaDenseSuccWordIdx, 0, 1u << 20},
        // State 0's successor list would run to the end of succ, past
        // state 1's start: the offsets decrease.
        {"succBegin", store::kFaSuccBegin, 1,
         static_cast<uint32_t>(parts.succ.size())},
        // Bits for states >= N in the last word of a dense mask.
        {"dense sodStarts", store::kFaDenseSodStarts, last,
         d.sodStarts[last] | stray},
        {"dense allInputStarts", store::kFaDenseAllInputStarts, last,
         d.allInputStarts[last] | stray},
        {"dense succWordMask", store::kFaDenseSuccWordMask, succ_k,
         d.succWordMask[succ_k] | stray},
        {"dense startWordMask", store::kFaDenseStartWordMask, start_k,
         d.startWordMask[start_k] | stray},
        {"dense startSuccWordMask", store::kFaDenseStartSuccWordMask,
         start_succ_k, d.startSuccWordMask[start_succ_k] | stray},
    };
    ASSERT_LT(parts.succBegin[2], parts.succ.size());

    for (const Case &c : cases) {
        bool found = false;
        auto tampered = rewriteBlob(
            *blob, [&](const store::SectionEntry &e,
                       std::vector<uint8_t> &bytes) {
                if (e.id != c.section)
                    return true;
                const size_t width = e.elemSize;
                if (width <= sizeof(c.value) &&
                    (c.index + 1) * width <= bytes.size()) {
                    // Little-endian: the low bytes of value fit the
                    // element whatever its width.
                    std::memcpy(bytes.data() + c.index * width, &c.value,
                                width);
                    found = true;
                }
                return true;
            });
        ASSERT_TRUE(found) << c.name << " has no element " << c.index;
        ASSERT_NE(tampered, nullptr) << c.name;
        error.clear();
        EXPECT_EQ(store::decodeFlatAutomaton(*tampered, 0, &error),
                  nullptr)
            << c.name << " = " << c.value << " was accepted";
        EXPECT_NE(error.find(c.name), std::string::npos)
            << c.name << ": " << error;
    }
}

/**
 * A DFA block is all-or-nothing: its skip tables are stored with it, so
 * a blob that carries the DFA but not the tables is malformed.
 */
TEST(StoreRoundtrip, DfaBlockWithoutSkipTablesIsRejected)
{
    Workload w = generateWorkload("Bro217", 7, 5);
    const FlatAutomaton fa(w.app);
    ASSERT_NE(fa.ensureHotDfa(), nullptr);
    BlobWriter bw(store::ArtifactKind::FlatAutomaton, 0xdfa);
    store::encodeFlatAutomaton(fa, bw);
    std::string error;
    auto blob = BlobView::fromBuffer(bw.finalize(), &error);
    ASSERT_NE(blob, nullptr) << error;
    ASSERT_NE(blob->findSection(store::kFaDfaMeta), nullptr);
    ASSERT_NE(store::decodeFlatAutomaton(*blob, 0, &error), nullptr)
        << error;

    auto stripped = rewriteBlob(
        *blob, [](const store::SectionEntry &e, std::vector<uint8_t> &) {
            return e.id != store::kFaDfaSkipIndex &&
                   e.id != store::kFaDfaSkipBits;
        });
    ASSERT_NE(stripped, nullptr);
    ASSERT_NE(stripped->findSection(store::kFaDfaMeta), nullptr);
    error.clear();
    EXPECT_EQ(store::decodeFlatAutomaton(*stripped, 0, &error), nullptr);
    EXPECT_NE(error.find("missing section"), std::string::npos) << error;
}

TEST(StoreRoundtrip, ProfilesAtEveryCheckpointPrefix)
{
    Rng input_rng(7);
    for (const char *abbr : {"EM", "CAV", "Rg05", "SPM"}) {
        Workload w = generateWorkload(abbr, 7, 5);
        const std::vector<uint8_t> input = smallInput(w, input_rng);
        const FlatAutomaton fa(w.app);

        const std::vector<size_t> checkpoints{1, 16, 128,
                                              input.size() / 2};
        const std::vector<HotColdProfile> profs =
            profileApplication(fa, input, checkpoints);
        ASSERT_EQ(profs.size(), checkpoints.size());

        for (size_t i = 0; i < checkpoints.size(); ++i) {
            BlobWriter bw(store::ArtifactKind::Profile, 7000 + i);
            store::encodeProfile(profs[i], checkpoints[i], bw);
            std::string error;
            auto blob = BlobView::fromBuffer(bw.finalize(), &error);
            ASSERT_NE(blob, nullptr) << error;

            HotColdProfile decoded;
            size_t prefix_len = 0;
            ASSERT_TRUE(store::decodeProfile(*blob, &decoded,
                                             &prefix_len, &error))
                << error;
            EXPECT_EQ(prefix_len, checkpoints[i]);
            EXPECT_EQ(decoded.hot, profs[i].hot)
                << abbr << " @ " << checkpoints[i];
            EXPECT_EQ(decoded.hotCount(), profs[i].hotCount());
        }
    }
}

/** Full deep equality of two applications. */
void
expectAppsEqual(const Application &a, const Application &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.abbr(), b.abbr());
    EXPECT_EQ(a.group(), b.group());
    ASSERT_EQ(a.nfaCount(), b.nfaCount());
    ASSERT_EQ(a.totalStates(), b.totalStates());
    for (uint32_t ni = 0; ni < a.nfaCount(); ++ni) {
        const Nfa &na = a.nfa(ni);
        const Nfa &nb = b.nfa(ni);
        EXPECT_EQ(na.name(), nb.name()) << "nfa " << ni;
        ASSERT_EQ(na.size(), nb.size()) << "nfa " << ni;
        EXPECT_EQ(na.startStates(), nb.startStates()) << "nfa " << ni;
        for (StateId s = 0; s < na.size(); ++s) {
            EXPECT_TRUE(na.state(s).symbols == nb.state(s).symbols);
            EXPECT_EQ(na.state(s).start, nb.state(s).start);
            EXPECT_EQ(na.state(s).reporting, nb.state(s).reporting);
            EXPECT_EQ(na.state(s).successors, nb.state(s).successors);
        }
    }
}

TEST(StoreRoundtrip, ApplicationBinaryBag)
{
    for (const char *abbr : {"EM", "RF2", "SPM"}) {
        Workload w = generateWorkload(abbr, 7, 5);
        BlobWriter bw(store::ArtifactKind::Raw, 11);
        store::encodeApplication(w.app, bw, 40);
        std::string error;
        auto blob = BlobView::fromBuffer(bw.finalize(), &error);
        ASSERT_NE(blob, nullptr) << error;

        Application decoded;
        ASSERT_TRUE(store::decodeApplication(*blob, 40, &decoded, &error))
            << error;
        expectAppsEqual(w.app, decoded);
    }
}

TEST(StoreRoundtrip, PreparedPartitionPipelineEquivalence)
{
    Rng input_rng(99);
    for (const char *abbr : {"EM", "CAV", "HM1000"}) {
        Workload w = generateWorkload(abbr, 7, 5);
        const std::vector<uint8_t> input = smallInput(w, input_rng);
        AppTopology topo(w.app);

        ExecutionOptions opts;
        opts.ap.capacity = w.app.totalStates() / 4 + 8;
        opts.profileFraction = 0.01;
        opts.fullInputAsTest = w.fullInputAsTest;

        const PreparedPartition fresh =
            preparePartition(topo, opts, input);

        BlobWriter bw(store::ArtifactKind::Partition, 31337);
        store::encodePreparedPartition(fresh, opts.ap.capacity, bw);
        std::string error;
        auto blob = BlobView::fromBuffer(bw.finalize(), &error);
        ASSERT_NE(blob, nullptr) << error;

        PreparedPartition loaded;
        ASSERT_TRUE(
            store::decodePreparedPartition(*blob, &loaded, &error))
            << error;
        loaded.profileInput = fresh.profileInput;
        loaded.testInput = fresh.testInput;

        EXPECT_EQ(loaded.layers.k, fresh.layers.k) << abbr;
        expectAppsEqual(fresh.part.hot, loaded.part.hot);
        expectAppsEqual(fresh.part.cold, loaded.part.cold);
        EXPECT_EQ(loaded.part.hotToOriginal, fresh.part.hotToOriginal);
        EXPECT_EQ(loaded.part.intermediateTarget,
                  fresh.part.intermediateTarget);
        EXPECT_EQ(loaded.part.coldToOriginal, fresh.part.coldToOriginal);
        EXPECT_EQ(loaded.part.originalToCold, fresh.part.originalToCold);
        EXPECT_EQ(loaded.part.coldNfaToOriginal,
                  fresh.part.coldNfaToOriginal);
        EXPECT_EQ(loaded.part.intermediateCount,
                  fresh.part.intermediateCount);
        EXPECT_EQ(loaded.part.hotOriginalReporting,
                  fresh.part.hotOriginalReporting);
        EXPECT_EQ(loaded.part.coldReporting, fresh.part.coldReporting);
        // The blob carries the hot automaton pre-flattened.
        ASSERT_NE(loaded.hotFa, nullptr);
        EXPECT_EQ(loaded.hotFa->size(), fresh.part.hot.totalStates());

        // Identical end-to-end pipeline results.
        const SpapRunStats a = runBaseApSpap(topo, opts, fresh, true);
        const SpapRunStats b = runBaseApSpap(topo, opts, loaded, true);
        EXPECT_EQ(a.reports, b.reports) << abbr;
        EXPECT_EQ(a.baseApBatches, b.baseApBatches);
        EXPECT_EQ(a.spApBatches, b.spApBatches);
        EXPECT_EQ(a.spApCycles, b.spApCycles);
        EXPECT_EQ(a.enableStalls, b.enableStalls);
        EXPECT_EQ(a.intermediateReports, b.intermediateReports);
        EXPECT_EQ(a.speedup, b.speedup);
    }
}

} // namespace
} // namespace sparseap
