/**
 * @file
 * Quiescence input-skip tests (SPARSEAP_INPUT_SKIP): the scan primitive
 * against its scalar reference on every supported SIMD tier, the dense
 * core's consumed+skipped accounting, and the headline guarantee — every
 * registered workload produces a byte-identical report stream with the
 * skip on and off, on every engine core, under every ISA. The skip is an
 * optimization, never an approximation.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec.h"
#include "sim/dense_core.h"
#include "sim/engine.h"
#include "sim/hot_dfa.h"
#include "store/artifact.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

using simd::Isa;
using simd::ScanMask;

/** Restore the process-wide ISA override when a test scope ends. */
struct IsaGuard
{
    ~IsaGuard() { simd::setIsa(simd::bestIsa()); }
};

std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> isas;
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
        if (simd::isaSupported(isa))
            isas.push_back(isa);
    return isas;
}

/** Random 256-bit byte set with roughly @p set_per_64 bits per word. */
std::array<uint64_t, 4>
randomByteSet(Rng &rng, unsigned set_per_64)
{
    std::array<uint64_t, 4> bits{};
    for (uint64_t &w : bits)
        for (unsigned k = 0; k < set_per_64; ++k)
            w |= 1ull << rng.index(64);
    return bits;
}

TEST(ScanMask, FromBitsRoundTripAndPopulation)
{
    Rng rng(20260810);
    for (int trial = 0; trial < 50; ++trial) {
        const std::array<uint64_t, 4> bits =
            randomByteSet(rng, 1 + trial % 8);
        const ScanMask m = ScanMask::fromBits(bits.data());
        unsigned want_pop = 0;
        for (unsigned b = 0; b < 256; ++b) {
            const bool want = (bits[b >> 6] >> (b & 63)) & 1;
            EXPECT_EQ(m.test(static_cast<uint8_t>(b)), want) << b;
            want_pop += want ? 1 : 0;
        }
        EXPECT_EQ(m.population(), want_pop);
    }
}

/**
 * The shuffle classifier on every supported tier against the obvious
 * scalar scan, over lengths straddling every vector width, unaligned
 * slices, and masks from near-empty to near-full.
 */
TEST(ScanMask, ScanMatchesScalarOnAllSupportedTiers)
{
    IsaGuard guard;
    const std::vector<Isa> isas = supportedIsas();
    ASSERT_FALSE(isas.empty());

    const size_t lengths[] = {0,  1,  2,  3,   7,   8,   15,  16, 17,
                              31, 32, 33, 63,  64,  65,  127, 128,
                              129, 200, 255, 256, 300};
    Rng rng(20260811);
    for (int trial = 0; trial < 8; ++trial) {
        const std::array<uint64_t, 4> bits =
            randomByteSet(rng, trial == 0 ? 0 : 1u << (trial % 6));
        const ScanMask m = ScanMask::fromBits(bits.data());

        for (size_t n : lengths) {
            for (size_t off : {size_t{0}, size_t{1}, size_t{3}}) {
                std::vector<uint8_t> data(n + off);
                for (uint8_t &b : data)
                    b = static_cast<uint8_t>(rng.index(256));

                size_t want = n;
                for (size_t i = 0; i < n; ++i) {
                    if (m.test(data[off + i])) {
                        want = i;
                        break;
                    }
                }
                for (Isa isa : isas) {
                    ASSERT_TRUE(simd::setIsa(isa));
                    EXPECT_EQ(simd::ops().scanForByteMask(
                                  data.data() + off, n, m),
                              want)
                        << simd::isaName(isa) << " trial " << trial
                        << " n=" << n << " off=" << off;
                }
            }
        }
    }

    // All-boring input: the scan must report the full length, and an
    // interesting first byte must stop it at zero, on every tier.
    std::array<uint64_t, 4> one{};
    one['x' >> 6] = 1ull << ('x' & 63); // only 'x' (0x78) is interesting
    const ScanMask m = ScanMask::fromBits(one.data());
    std::vector<uint8_t> boring(517, 'a');
    for (Isa isa : isas) {
        ASSERT_TRUE(simd::setIsa(isa));
        EXPECT_EQ(simd::ops().scanForByteMask(boring.data(),
                                              boring.size(), m),
                  boring.size())
            << simd::isaName(isa);
        boring[200] = 'x';
        EXPECT_EQ(simd::ops().scanForByteMask(boring.data(),
                                              boring.size(), m),
                  200u)
            << simd::isaName(isa);
        boring[0] = 'x';
        EXPECT_EQ(
            simd::ops().scanForByteMask(boring.data(), boring.size(), m),
            0u)
            << simd::isaName(isa);
        boring[0] = 'a';
        boring[200] = 'a';
    }
}

/** Skip-driven dense run, mirroring the engine's runDense loop. */
ReportList
runDenseSkipping(DenseCore &core, std::span<const uint8_t> input)
{
    ReportList reports;
    core.reset(/*install_starts=*/true);
    size_t i = 0;
    const size_t n = input.size();
    while (i < n) {
        i += core.trySkip(input.data() + i, n - i);
        if (i >= n)
            break;
        core.step(input[i], static_cast<uint32_t>(i), &reports);
        ++i;
    }
    return reports;
}

/**
 * Dense-core accounting: every input byte is either stepped (cycles) or
 * skipped (skippedSymbols), never both, never dropped — and the skipped
 * run's reports equal the stepped run's byte for byte.
 */
TEST(InputSkip, DenseCoreConsumedPlusSkippedCoversInput)
{
    Rng input_rng(20180621);
    size_t skipped_somewhere = 0;
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 2048;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        DenseCore plain(fa);
        plain.reset(true);
        ReportList want;
        for (size_t i = 0; i < input.size(); ++i)
            plain.step(input[i], static_cast<uint32_t>(i), &want);

        DenseCore skipping(fa);
        const ReportList got = runDenseSkipping(skipping, input);
        EXPECT_EQ(got, want) << entry.abbr;

        const DenseCore::StepStats &ds = skipping.stepStats();
        EXPECT_EQ(ds.cycles + ds.skippedSymbols, input.size())
            << entry.abbr;
        if (ds.skippedSymbols > 0) {
            ++skipped_somewhere;
            EXPECT_GT(ds.jumps, 0u) << entry.abbr;
            EXPECT_GE(ds.skippedSymbols, ds.jumps) << entry.abbr;
        }
    }
    // The property is vacuous if no workload ever skips.
    EXPECT_GT(skipped_somewhere, 0u);
}

/**
 * The headline differential: all 26 registered workloads, every engine
 * core that can skip (dense, DFA-with-fallback, auto), every
 * supported SIMD tier — skip-on and skip-off report streams must be
 * byte-identical, in order, without sorting.
 */
TEST(InputSkip, PropertyReportsByteIdenticalAcrossModesAndIsas)
{
    IsaGuard guard;
    const std::vector<Isa> isas = supportedIsas();

    Rng input_rng(20180621);
    size_t checked = 0;
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        for (Isa isa : isas) {
            ASSERT_TRUE(simd::setIsa(isa));
            for (EngineMode mode : {EngineMode::Dense, EngineMode::Dfa,
                                    EngineMode::Auto}) {
                Engine off(fa, mode);
                off.setInputSkip(false);
                const SimResult r_off = off.run(input);
                EXPECT_EQ(r_off.skippedSymbols, 0u);

                Engine on(fa, mode);
                on.setInputSkip(true);
                const SimResult r_on = on.run(input);

                EXPECT_EQ(r_on.reports, r_off.reports)
                    << entry.abbr << " mode "
                    << engineModeName(mode) << " under "
                    << simd::isaName(isa);
                EXPECT_LE(r_on.skippedSymbols, input.size());
                EXPECT_EQ(r_on.cycles, input.size());
                ++checked;
            }
        }
    }
    ASSERT_GT(checked, 0u);
}

/** Random automata: skip on/off differential beyond the catalog. */
TEST(InputSkip, RandomizedDenseDifferential)
{
    Rng rng(20260812);
    for (int trial = 0; trial < 20; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = trial % 4 == 0 ? 0.05 : 0.3;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.1;
        params.extraStartProb = trial % 3 == 0 ? 0.4 : 0.0;
        Application app = testing::randomApplication(
            rng, 2 + rng.index(8), params);
        const std::vector<uint8_t> input =
            testing::randomInput(rng, 600, params.alphabetSize);
        FlatAutomaton fa(app);

        Engine off(fa, EngineMode::Dense);
        off.setInputSkip(false);
        Engine on(fa, EngineMode::Dense);
        on.setInputSkip(true);
        EXPECT_EQ(on.run(input).reports, off.run(input).reports)
            << "trial " << trial;
    }
}

/**
 * Store round trip: the DFA skip sections reattach on decode, so the
 * decoded DFA carries the same skippable-state set without rebuilding;
 * the dense scan mask derived at load equals the flattened one; and the
 * decoded automaton skips to the same report stream.
 */
TEST(InputSkip, StoreRoundTripPreservesSkipTables)
{
    Rng input_rng(20180621);
    Workload w = generateWorkload("Bro217", 7, 5);
    size_t bytes = 2048;
    if (w.inputBytesCap > 0)
        bytes = std::min(bytes, w.inputBytesCap);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, bytes, input_rng);
    FlatAutomaton fa(w.app);
    const std::shared_ptr<const HotDfa> dfa = fa.ensureHotDfa();
    ASSERT_NE(dfa, nullptr);

    store::BlobWriter bw(store::ArtifactKind::FlatAutomaton, 0x5c47);
    store::encodeFlatAutomaton(fa, bw);
    std::string error;
    auto blob = store::BlobView::fromBuffer(bw.finalize(), &error);
    ASSERT_NE(blob, nullptr) << error;
    ASSERT_NE(blob->findSection(store::kFaDfaSkipIndex), nullptr);

    std::unique_ptr<FlatAutomaton> decoded =
        store::decodeFlatAutomaton(*blob, 0, &error);
    ASSERT_NE(decoded, nullptr) << error;
    const std::shared_ptr<const HotDfa> warm = decoded->hotDfaIfBuilt();
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->skippableStates(), dfa->skippableStates());
    EXPECT_EQ(decoded->denseView().staticScan, fa.denseView().staticScan);

    Engine off(fa, EngineMode::Dfa);
    off.setInputSkip(false);
    Engine on(*decoded, EngineMode::Dfa);
    on.setInputSkip(true);
    EXPECT_EQ(on.run(input).reports, off.run(input).reports);
}

} // namespace
} // namespace sparseap
