/**
 * @file
 * SIMD kernel tests: every tier the CPU supports must compute exactly
 * what the scalar reference computes, at the op level (bitAnd/orInto/
 * clear/popcount over awkward lengths and offsets) and at the kernel
 * level (byte-identical per-cycle enabled sets and identical reports
 * from the dense core whichever ISA its sweeps run at).
 */

#include <algorithm>
#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec.h"
#include "common/word_vector.h"
#include "sim/dense_core.h"
#include "sim/engine.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

using simd::Isa;

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

std::vector<uint64_t>
randomWords(Rng &rng, size_t n)
{
    std::vector<uint64_t> v(n);
    for (uint64_t &w : v)
        w = rng.uniform(0, ~uint64_t{0});
    return v;
}

/** Shift offsets the multi-shift op is checked at. */
constexpr uint8_t kShiftOffsets[] = {0, 1, 31, 63};

/**
 * Bit-by-bit reference for simd::Ops::multiShiftOrInto: each bit s of
 * src sets bit t = s + shifts[j] of dst when t lies within the n words
 * and row j has bit t set.
 */
void
multiShiftReference(uint64_t *dst, const uint64_t *src,
                    const uint64_t *rows, size_t stride,
                    const std::vector<uint8_t> &shifts, size_t n)
{
    for (size_t j = 0; j < shifts.size(); ++j) {
        for (size_t s = 0; s < n * 64; ++s) {
            const size_t t = s + shifts[j];
            if (t < n * 64 && testWordBit(src, s) &&
                testWordBit(rows + j * stride, t))
                dst[t / 64] |= uint64_t{1} << (t % 64);
        }
    }
}

/** Every supported tier vs the scalar reference, op by op. */
TEST(Simd, OpsMatchScalarOnAllSupportedTiers)
{
    IsaGuard guard;
    const std::vector<Isa> isas = supportedIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), Isa::Scalar);

    // Lengths straddling every vector width and its tail handling.
    const size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 63, 64, 65, 127, 128, 200};
    Rng rng(20260808);
    for (Isa isa : isas) {
        ASSERT_TRUE(simd::setIsa(isa)) << simd::isaName(isa);
        const simd::Ops &o = simd::ops();
        ASSERT_EQ(o.isa, isa);
        EXPECT_EQ(simd::activeIsa(), isa);

        for (size_t n : lengths) {
            // Offset slices: 8-byte-aligned but not 64-byte-aligned
            // pointers must work (the kernels use unaligned loads).
            for (size_t off : {size_t{0}, size_t{1}, size_t{3}}) {
                const std::vector<uint64_t> a = randomWords(rng, n + off);
                const std::vector<uint64_t> b = randomWords(rng, n + off);

                std::vector<uint64_t> dst(n + off, 0xdeadbeefcafef00dull);
                o.bitAnd(dst.data() + off, a.data() + off, b.data() + off,
                         n);
                uint64_t want_pop = 0;
                for (size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(dst[off + i], a[off + i] & b[off + i])
                        << simd::isaName(isa) << " n=" << n;
                    want_pop +=
                        std::popcount(a[off + i] & b[off + i]);
                }

                EXPECT_EQ(o.popcount(dst.data() + off, n), want_pop)
                    << simd::isaName(isa) << " n=" << n;

                std::vector<uint64_t> acc = a;
                o.orInto(acc.data() + off, b.data() + off, n);
                for (size_t i = 0; i < n; ++i)
                    EXPECT_EQ(acc[off + i], a[off + i] | b[off + i])
                        << simd::isaName(isa) << " n=" << n;

                std::vector<uint64_t> an = a;
                o.andNotInto(an.data() + off, b.data() + off, n);
                for (size_t i = 0; i < n; ++i)
                    EXPECT_EQ(an[off + i], a[off + i] & ~b[off + i])
                        << simd::isaName(isa) << " n=" << n;

                // Multi-shift: 0-8 rows spaced wider than n, offsets
                // cycling through both ends and the middle of [0, 63].
                for (size_t k = 0; k <= 8; ++k) {
                    const size_t stride = n + 5;
                    const std::vector<uint64_t> rows =
                        randomWords(rng, k * stride + off);
                    std::vector<uint8_t> shifts(k);
                    for (size_t j = 0; j < k; ++j)
                        shifts[j] = kShiftOffsets[(j + n) % 4];
                    std::vector<uint64_t> got = a;
                    o.multiShiftOrInto(got.data() + off, b.data() + off,
                                       rows.data() + off, stride,
                                       shifts.data(), k, n);
                    std::vector<uint64_t> want = a;
                    multiShiftReference(want.data() + off, b.data() + off,
                                        rows.data() + off, stride, shifts,
                                        n);
                    EXPECT_EQ(got, want) << simd::isaName(isa) << " n=" << n
                                         << " rows=" << k;
                }

                if (n > 0) {
                    // Sparse source: nonzeroWords must see exactly the
                    // nonzero words, including an all-zero tail word.
                    std::vector<uint64_t> src(n + off, 0);
                    for (size_t i = 0; i < n; i += 3)
                        src[off + i] = rng.uniform(1, ~uint64_t{0});
                    std::vector<uint64_t> sum((n + 63) / 64,
                                              0xffffffffffffffffull);
                    o.nonzeroWords(sum.data(), src.data() + off, n);
                    for (size_t i = 0; i < n; ++i)
                        EXPECT_EQ((sum[i >> 6] >> (i & 63)) & 1,
                                  src[off + i] != 0 ? 1u : 0u)
                            << simd::isaName(isa) << " n=" << n;
                    // Tail bits beyond n are zero, not stale.
                    for (size_t i = n; i < sum.size() * 64; ++i)
                        EXPECT_EQ((sum[i >> 6] >> (i & 63)) & 1, 0u)
                            << simd::isaName(isa) << " n=" << n;
                }

                o.clear(acc.data() + off, n);
                for (size_t i = 0; i < n; ++i)
                    EXPECT_EQ(acc[off + i], 0u);
                // Words before the slice stay untouched.
                for (size_t i = 0; i < off; ++i)
                    EXPECT_EQ(acc[i], a[i]);
            }

            // In-place: dst aliasing a.
            std::vector<uint64_t> a = randomWords(rng, n);
            const std::vector<uint64_t> b = randomWords(rng, n);
            const std::vector<uint64_t> orig = a;
            o.bitAnd(a.data(), a.data(), b.data(), n);
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(a[i], orig[i] & b[i]);
        }
    }
}

/** The resolved default is the best tier the CPU has. */
TEST(Simd, DefaultResolvesToBestTier)
{
    IsaGuard guard;
    ASSERT_TRUE(simd::setIsa(simd::bestIsa()));
    EXPECT_EQ(simd::activeIsa(), simd::bestIsa());
    EXPECT_TRUE(simd::isaSupported(Isa::Scalar));
    EXPECT_STREQ(simd::isaName(Isa::Scalar), "scalar");
    EXPECT_STREQ(simd::isaName(Isa::Avx512), "avx512");
}

/** Per-cycle dense-core trace under one ISA. */
struct DenseTrace
{
    std::vector<std::vector<uint64_t>> enabled; ///< per cycle
    std::vector<uint64_t> permanent;            ///< after the run
    ReportList reports;
};

DenseTrace
traceRun(const FlatAutomaton &fa, std::span<const uint8_t> input)
{
    DenseCore core(fa);
    core.reset(true);
    DenseTrace t;
    for (size_t i = 0; i < input.size(); ++i) {
        core.step(input[i], static_cast<uint32_t>(i), &t.reports);
        const auto e = core.enabledWords();
        t.enabled.emplace_back(e.begin(), e.end());
    }
    const auto p = core.permanentWords();
    t.permanent.assign(p.begin(), p.end());
    std::sort(t.reports.begin(), t.reports.end());
    return t;
}

/**
 * Forcing each supported ISA must leave the dense core's whole visible
 * state byte-identical every cycle — not just the reports.
 */
TEST(Simd, DenseCoreByteIdenticalAcrossIsas)
{
    IsaGuard guard;
    const std::vector<Isa> isas = supportedIsas();

    Rng rng(20260809);
    for (int trial = 0; trial < 12; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.1;
        params.extraStartProb = trial % 3 == 0 ? 0.4 : 0.0;
        Application app = testing::randomApplication(
            rng, 2 + rng.index(8), params);
        const std::vector<uint8_t> input =
            testing::randomInput(rng, 300, params.alphabetSize);
        FlatAutomaton fa(app);

        ASSERT_TRUE(simd::setIsa(Isa::Scalar));
        const DenseTrace want = traceRun(fa, input);
        for (Isa isa : isas) {
            ASSERT_TRUE(simd::setIsa(isa));
            const DenseTrace got = traceRun(fa, input);
            EXPECT_EQ(got.enabled, want.enabled)
                << simd::isaName(isa) << " trial " << trial;
            EXPECT_EQ(got.permanent, want.permanent)
                << simd::isaName(isa) << " trial " << trial;
            EXPECT_EQ(got.reports, want.reports)
                << simd::isaName(isa) << " trial " << trial;
        }
    }
}

/** Engine-level gate on registered workloads, every ISA vs sparse. */
TEST(Simd, PropertyEngineMatchesSparseUnderEveryIsa)
{
    IsaGuard guard;
    const std::vector<Isa> isas = supportedIsas();

    Rng input_rng(20180621);
    size_t checked = 0;
    for (const auto &entry : appCatalog()) {
        if (++checked % 3 != 0) // every third workload keeps this fast
            continue;
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        Engine sparse(fa, EngineMode::Sparse);
        ReportList want = sparse.run(input).reports;
        std::sort(want.begin(), want.end());

        for (Isa isa : isas) {
            ASSERT_TRUE(simd::setIsa(isa));
            Engine dense(fa, EngineMode::Dense); // caches the new table
            ReportList got = dense.run(input).reports;
            std::sort(got.begin(), got.end());
            EXPECT_EQ(got, want)
                << entry.abbr << " under " << simd::isaName(isa);
        }
    }
    ASSERT_GT(checked, 0u);
}

} // namespace
} // namespace sparseap
