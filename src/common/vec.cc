#include "common/vec.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/logging.h"
#include "common/options.h"

#if defined(__x86_64__) || defined(__i386__)
#define SPARSEAP_VEC_X86 1
#include <immintrin.h>
#else
#define SPARSEAP_VEC_X86 0
#endif

namespace sparseap {
namespace simd {

namespace {

// ------------------------------------------------------------- scalar --

void
bitAndScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
             size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = a[i] & b[i];
}

void
orIntoScalar(uint64_t *dst, const uint64_t *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] |= src[i];
}

void
clearScalar(uint64_t *dst, size_t n)
{
    std::fill_n(dst, n, uint64_t{0}); // n == 0 may come with a null dst
}

void
andNotIntoScalar(uint64_t *dst, const uint64_t *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] &= ~src[i];
}

/**
 * The bits of @p x that a shift up by @p d in [0, 63] carries into the
 * next word: x >> (64 - d) for d >= 1, and 0 for d = 0, where the
 * single shift would be by 64 (undefined behaviour).
 */
inline uint64_t
carryOut(uint64_t x, unsigned d)
{
    return (x >> 1) >> (63 - d);
}

void
multiShiftOrIntoScalar(uint64_t *dst, const uint64_t *src,
                       const uint64_t *rows, size_t stride,
                       const uint8_t *shifts, size_t k, size_t n)
{
    for (size_t j = 0; j < k; ++j) {
        const uint64_t *m = rows + j * stride;
        const unsigned d = shifts[j];
        uint64_t carry = 0;
        for (size_t i = 0; i < n; ++i) {
            dst[i] |= ((src[i] << d) | carry) & m[i];
            carry = carryOut(src[i], d);
        }
    }
}

void
nonzeroWordsScalar(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t i = 0;
    size_t j = 0;
    while (i < n) {
        const size_t lim = n - i < 64 ? n - i : 64;
        uint64_t bits = 0;
        for (size_t k = 0; k < lim; ++k)
            bits |= static_cast<uint64_t>(src[i + k] != 0) << k;
        dst[j++] = bits;
        i += lim;
    }
}

uint64_t
popcountScalar(const uint64_t *src, size_t n)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i)
        sum += static_cast<uint64_t>(__builtin_popcountll(src[i]));
    return sum;
}

size_t
scanForByteMaskScalar(const uint8_t *data, size_t n,
                      const ScanMask &mask)
{
    for (size_t i = 0; i < n; ++i)
        if (mask.test(data[i]))
            return i;
    return n;
}

#if SPARSEAP_VEC_X86

// Every vector body uses unaligned loads/stores: they are exactly as
// fast as aligned ones when the address is aligned (which it is, see
// vec.h), and they keep the kernels safe on arbitrary tails and spans.

// --------------------------------------------------------------- avx2 --

__attribute__((target("avx2"))) void
bitAndAvx2(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i a0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i a1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i + 4));
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i + 4));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_and_si256(a0, b0));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i + 4),
                            _mm256_and_si256(a1, b1));
    }
    for (; i + 4 <= n; i += 4) {
        const __m256i a0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_and_si256(a0, b0));
    }
    for (; i < n; ++i)
        dst[i] = a[i] & b[i];
}

__attribute__((target("avx2"))) void
orIntoAvx2(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_or_si256(d, s));
    }
    for (; i < n; ++i)
        dst[i] |= src[i];
}

__attribute__((target("avx2"))) void
clearAvx2(uint64_t *dst, size_t n)
{
    const __m256i z = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), z);
    for (; i < n; ++i)
        dst[i] = 0;
}

__attribute__((target("avx2"))) void
andNotIntoAvx2(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        // andnot computes ~a & b, so src goes in the first operand.
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_andnot_si256(s, d));
    }
    for (; i < n; ++i)
        dst[i] &= ~src[i];
}

/**
 * Scalar multi-shift step of one word i >= 1 — the tails of the vector
 * bodies. The loop-carried dependency of the scalar tier is replaced by
 * a reload of word i-1, as in the vector loops.
 */
inline void
multiShiftWord(uint64_t *dst, const uint64_t *src, const uint64_t *rows,
               size_t stride, const uint8_t *shifts, size_t k, size_t i)
{
    uint64_t acc = dst[i];
    for (size_t j = 0; j < k; ++j)
        acc |= ((src[i] << shifts[j]) | carryOut(src[i - 1], shifts[j])) &
               rows[j * stride + i];
    dst[i] = acc;
}

// The vector bodies accumulate every row into one register per vector
// of dst, with the rows' shift counts broadcast once up front. The
// cross-word carry is one unaligned reload of src one element back —
// cheaper than lane-shuffling the previous vector — shared by all rows,
// and a variable shift by 64 (d = 0) zeroes the lane, so the carry term
// vanishes without a branch.

__attribute__((target("avx2"))) void
multiShiftOrIntoAvx2(uint64_t *dst, const uint64_t *src,
                     const uint64_t *rows, size_t stride,
                     const uint8_t *shifts, size_t k, size_t n)
{
    SPARSEAP_ASSERT(k <= kMaxShiftRows, "too many shift rows: ", k);
    if (n == 0 || k == 0)
        return;
    __m256i up[kMaxShiftRows];
    __m256i down[kMaxShiftRows];
    for (size_t j = 0; j < k; ++j) {
        dst[0] |= (src[0] << shifts[j]) & rows[j * stride]; // no carry in
        up[j] = _mm256_set1_epi64x(shifts[j]);
        down[j] = _mm256_set1_epi64x(64 - shifts[j]);
    }
    size_t i = 1;
    for (; i + 4 <= n; i += 4) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i prev = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i - 1));
        __m256i acc = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        for (size_t j = 0; j < k; ++j) {
            const __m256i m = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(rows + j * stride + i));
            const __m256i moved =
                _mm256_or_si256(_mm256_sllv_epi64(cur, up[j]),
                                _mm256_srlv_epi64(prev, down[j]));
            acc = _mm256_or_si256(acc, _mm256_and_si256(moved, m));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), acc);
    }
    for (; i < n; ++i)
        multiShiftWord(dst, src, rows, stride, shifts, k, i);
}

__attribute__((target("avx2"))) void
nonzeroWordsAvx2(uint64_t *dst, const uint64_t *src, size_t n)
{
    const __m256i z = _mm256_setzero_si256();
    size_t i = 0;
    size_t j = 0;
    while (i + 64 <= n) {
        uint64_t bits = 0;
        for (size_t k = 0; k < 64; k += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + i + k));
            const unsigned zero = static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(
                    _mm256_cmpeq_epi64(v, z))));
            bits |= static_cast<uint64_t>(~zero & 0xfu) << k;
        }
        dst[j++] = bits;
        i += 64;
    }
    while (i < n) {
        const size_t lim = n - i < 64 ? n - i : 64;
        uint64_t bits = 0;
        for (size_t k = 0; k < lim; ++k)
            bits |= static_cast<uint64_t>(src[i + k] != 0) << k;
        dst[j++] = bits;
        i += lim;
    }
}

// ------------------------------------------------------------- avx512 --

// All-lanes masks for the zero-masking intrinsic forms. GCC 12's
// unmasked wrappers (_mm512_andnot_si512, _mm512_slli_epi64, ...) pass
// an undefined source vector that -Wmaybe-uninitialized flags; with
// every lane selected the masked forms compute the same value.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

__attribute__((target("avx512f,avx512bw"))) void
bitAndAvx512(uint64_t *dst, const uint64_t *a, const uint64_t *b,
             size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i va = _mm512_loadu_si512(a + i);
        const __m512i vb = _mm512_loadu_si512(b + i);
        _mm512_storeu_si512(dst + i, _mm512_and_si512(va, vb));
    }
    if (i < n) {
        // Masked tail: one predicated op instead of a scalar loop.
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - i)) - 1u);
        const __m512i va = _mm512_maskz_loadu_epi64(m, a + i);
        const __m512i vb = _mm512_maskz_loadu_epi64(m, b + i);
        _mm512_mask_storeu_epi64(dst + i, m, _mm512_and_si512(va, vb));
    }
}

__attribute__((target("avx512f,avx512bw"))) void
orIntoAvx512(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i d = _mm512_loadu_si512(dst + i);
        const __m512i s = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, _mm512_or_si512(d, s));
    }
    if (i < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - i)) - 1u);
        const __m512i d = _mm512_maskz_loadu_epi64(m, dst + i);
        const __m512i s = _mm512_maskz_loadu_epi64(m, src + i);
        _mm512_mask_storeu_epi64(dst + i, m, _mm512_or_si512(d, s));
    }
}

__attribute__((target("avx512f,avx512bw"))) void
clearAvx512(uint64_t *dst, size_t n)
{
    const __m512i z = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_si512(dst + i, z);
    if (i < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_epi64(dst + i, m, z);
    }
}

__attribute__((target("avx512f,avx512bw"))) void
andNotIntoAvx512(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i d = _mm512_loadu_si512(dst + i);
        const __m512i s = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, _mm512_maskz_andnot_epi64(kAll8, s, d));
    }
    if (i < n) {
        const __mmask8 m =
            static_cast<__mmask8>((1u << (n - i)) - 1u);
        const __m512i d = _mm512_maskz_loadu_epi64(m, dst + i);
        const __m512i s = _mm512_maskz_loadu_epi64(m, src + i);
        _mm512_mask_storeu_epi64(dst + i, m,
                                 _mm512_maskz_andnot_epi64(kAll8, s, d));
    }
}

/** acc | ((cur << up | prev >> down) & m), the OR into acc as one
 *  ternary-logic op (truth table 0xF8: a | (b & c)). */
__attribute__((target("avx512f,avx512bw"))) inline __m512i
shiftRowInto(__m512i acc, __m512i cur, __m512i prev, __m512i m,
             __m512i up, __m512i down)
{
    const __m512i moved =
        _mm512_or_si512(_mm512_maskz_sllv_epi64(kAll8, cur, up),
                        _mm512_maskz_srlv_epi64(kAll8, prev, down));
    return _mm512_ternarylogic_epi64(acc, moved, m, 0xF8);
}

__attribute__((target("avx512f,avx512bw"))) void
multiShiftOrIntoAvx512(uint64_t *dst, const uint64_t *src,
                       const uint64_t *rows, size_t stride,
                       const uint8_t *shifts, size_t k, size_t n)
{
    SPARSEAP_ASSERT(k <= kMaxShiftRows, "too many shift rows: ", k);
    if (n == 0 || k == 0)
        return;
    __m512i up[kMaxShiftRows];
    __m512i down[kMaxShiftRows];
    for (size_t j = 0; j < k; ++j) {
        dst[0] |= (src[0] << shifts[j]) & rows[j * stride]; // no carry in
        up[j] = _mm512_set1_epi64(shifts[j]);
        down[j] = _mm512_set1_epi64(64 - shifts[j]);
    }
    size_t i = 1;
    for (; i + 8 <= n; i += 8) {
        const __m512i cur = _mm512_loadu_si512(src + i);
        const __m512i prev = _mm512_loadu_si512(src + i - 1);
        __m512i acc = _mm512_loadu_si512(dst + i);
        for (size_t j = 0; j < k; ++j)
            acc = shiftRowInto(acc, cur, prev,
                               _mm512_loadu_si512(rows + j * stride + i),
                               up[j], down[j]);
        _mm512_storeu_si512(dst + i, acc);
    }
    if (i < n) {
        const __mmask8 t = static_cast<__mmask8>((1u << (n - i)) - 1u);
        const __m512i cur = _mm512_maskz_loadu_epi64(t, src + i);
        const __m512i prev = _mm512_maskz_loadu_epi64(t, src + i - 1);
        __m512i acc = _mm512_maskz_loadu_epi64(t, dst + i);
        for (size_t j = 0; j < k; ++j)
            acc = shiftRowInto(
                acc, cur, prev,
                _mm512_maskz_loadu_epi64(t, rows + j * stride + i), up[j],
                down[j]);
        _mm512_mask_storeu_epi64(dst + i, t, acc);
    }
}

__attribute__((target("avx512f,avx512bw"))) void
nonzeroWordsAvx512(uint64_t *dst, const uint64_t *src, size_t n)
{
    size_t i = 0;
    size_t j = 0;
    while (i + 64 <= n) {
        uint64_t bits = 0;
        for (size_t k = 0; k < 64; k += 8) {
            const __m512i v = _mm512_loadu_si512(src + i + k);
            bits |= static_cast<uint64_t>(
                        _mm512_test_epi64_mask(v, v))
                    << k;
        }
        dst[j++] = bits;
        i += 64;
    }
    if (i < n) {
        const size_t rem = n - i;
        uint64_t bits = 0;
        size_t k = 0;
        for (; k + 8 <= rem; k += 8) {
            const __m512i v = _mm512_loadu_si512(src + i + k);
            bits |= static_cast<uint64_t>(
                        _mm512_test_epi64_mask(v, v))
                    << k;
        }
        if (k < rem) {
            const __mmask8 m =
                static_cast<__mmask8>((1u << (rem - k)) - 1u);
            const __m512i v =
                _mm512_maskz_loadu_epi64(m, src + i + k);
            bits |= static_cast<uint64_t>(
                        _mm512_test_epi64_mask(v, v))
                    << k;
        }
        dst[j] = bits;
    }
}

// The shuffle-based byte classifier ("truffle" in Hyperscan): for byte
// b = (hi<<4)|lo, pshufb looks membership bits up by lo in two nibble
// tables split on hi<8 vs hi>=8 (pshufb zeroes lanes whose index byte
// has bit 7 set, which performs the split for free: v selects the
// hi<8 half directly, v^0x80 selects the other). A third pshufb maps
// the hi nibble (bits 4-6 of the shifted index are ignored by pshufb)
// to the single-bit mask 1<<(hi&7); a byte is in the set iff the
// looked-up membership bits intersect that mask.

__attribute__((target("avx2"))) size_t
scanForByteMaskAvx2(const uint8_t *data, size_t n, const ScanMask &mask)
{
    const __m256i lo_clear = _mm256_broadcastsi128_si256(_mm_load_si128(
        reinterpret_cast<const __m128i *>(mask.loClear)));
    const __m256i lo_set = _mm256_broadcastsi128_si256(_mm_load_si128(
        reinterpret_cast<const __m128i *>(mask.loSet)));
    const __m256i hi_bit = _mm256_set1_epi8(static_cast<char>(0x80));
    const __m256i power = _mm256_set1_epi64x(
        static_cast<long long>(0x8040201008040201ull));
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data + i));
        const __m256i shuf1 = _mm256_shuffle_epi8(lo_clear, v);
        const __m256i shuf2 = _mm256_shuffle_epi8(
            lo_set, _mm256_xor_si256(v, hi_bit));
        const __m256i hi = _mm256_andnot_si256(
            hi_bit, _mm256_srli_epi64(v, 4));
        const __m256i shuf3 = _mm256_shuffle_epi8(power, hi);
        const __m256i hit = _mm256_and_si256(
            _mm256_or_si256(shuf1, shuf2), shuf3);
        const unsigned miss = static_cast<unsigned>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(hit, _mm256_setzero_si256())));
        const unsigned found = ~miss;
        if (found != 0)
            return i + static_cast<size_t>(__builtin_ctz(found));
    }
    for (; i < n; ++i)
        if (mask.test(data[i]))
            return i;
    return n;
}

__attribute__((target("avx512f,avx512bw"))) size_t
scanForByteMaskAvx512(const uint8_t *data, size_t n,
                      const ScanMask &mask)
{
    const __m512i lo_clear = _mm512_maskz_broadcast_i32x4(
        kAll16, _mm_load_si128(
                    reinterpret_cast<const __m128i *>(mask.loClear)));
    const __m512i lo_set = _mm512_maskz_broadcast_i32x4(
        kAll16, _mm_load_si128(
                    reinterpret_cast<const __m128i *>(mask.loSet)));
    const __m512i hi_bit = _mm512_set1_epi8(static_cast<char>(0x80));
    const __m512i power = _mm512_set1_epi64(
        static_cast<long long>(0x8040201008040201ull));
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m512i v = _mm512_loadu_si512(data + i);
        const __m512i shuf1 = _mm512_shuffle_epi8(lo_clear, v);
        const __m512i shuf2 = _mm512_shuffle_epi8(
            lo_set, _mm512_xor_si512(v, hi_bit));
        const __m512i hi = _mm512_maskz_andnot_epi64(
            kAll8, hi_bit, _mm512_maskz_srli_epi64(kAll8, v, 4));
        const __m512i shuf3 = _mm512_shuffle_epi8(power, hi);
        const __m512i hit = _mm512_and_si512(
            _mm512_or_si512(shuf1, shuf2), shuf3);
        const __mmask64 found = _mm512_test_epi8_mask(hit, hit);
        if (found != 0)
            return i + static_cast<size_t>(__builtin_ctzll(
                           static_cast<unsigned long long>(found)));
    }
    for (; i < n; ++i)
        if (mask.test(data[i]))
            return i;
    return n;
}

__attribute__((target("avx512f,avx512vpopcntdq"))) uint64_t
popcountAvx512(const uint64_t *src, size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_loadu_si512(src + i)));
    uint64_t lanes[8];
    _mm512_storeu_si512(lanes, acc);
    uint64_t sum = 0;
    for (uint64_t lane : lanes)
        sum += lane;
    for (; i < n; ++i)
        sum += static_cast<uint64_t>(__builtin_popcountll(src[i]));
    return sum;
}

#endif // SPARSEAP_VEC_X86

// ----------------------------------------------------------- dispatch --

constexpr Ops kScalarOps{bitAndScalar,       orIntoScalar,
                         clearScalar,        andNotIntoScalar,
                         multiShiftOrIntoScalar, nonzeroWordsScalar,
                         popcountScalar,     scanForByteMaskScalar,
                         Isa::Scalar};

#if SPARSEAP_VEC_X86
constexpr Ops kAvx2Ops{bitAndAvx2,       orIntoAvx2,
                       clearAvx2,        andNotIntoAvx2,
                       multiShiftOrIntoAvx2, nonzeroWordsAvx2,
                       popcountScalar,   scanForByteMaskAvx2,
                       Isa::Avx2};
// Two AVX-512 tables: VPOPCNTDQ is a separate feature bit from BW.
constexpr Ops kAvx512Ops{bitAndAvx512,       orIntoAvx512,
                         clearAvx512,        andNotIntoAvx512,
                         multiShiftOrIntoAvx512, nonzeroWordsAvx512,
                         popcountScalar,     scanForByteMaskAvx512,
                         Isa::Avx512};
constexpr Ops kAvx512PopcntOps{bitAndAvx512,       orIntoAvx512,
                               clearAvx512,        andNotIntoAvx512,
                               multiShiftOrIntoAvx512, nonzeroWordsAvx512,
                               popcountAvx512,     scanForByteMaskAvx512,
                               Isa::Avx512};
#endif

const Ops *
tableFor(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return &kScalarOps;
#if SPARSEAP_VEC_X86
    case Isa::Avx2:
        return &kAvx2Ops;
    case Isa::Avx512:
        return __builtin_cpu_supports("avx512vpopcntdq")
                   ? &kAvx512PopcntOps
                   : &kAvx512Ops;
#else
    case Isa::Avx2:
    case Isa::Avx512:
        return &kScalarOps;
#endif
    }
    return &kScalarOps;
}

std::atomic<const Ops *> g_active{nullptr};
std::once_flag g_resolve_once;

/** Map the SPARSEAP_SIMD string (see common/options.h) to a request. */
bool
parseSimd(const std::string &s, Isa *isa)
{
    if (s == "off" || s == "scalar") {
        *isa = Isa::Scalar;
        return true;
    }
    if (s == "avx2") {
        *isa = Isa::Avx2;
        return true;
    }
    if (s == "avx512") {
        *isa = Isa::Avx512;
        return true;
    }
    return false;
}

void
resolve()
{
    const std::string &req = globalOptions().simd;
    Isa isa = bestIsa();
    if (req != "auto") {
        if (!parseSimd(req, &isa))
            fatal("SPARSEAP_SIMD must be auto, off, scalar, avx2 or "
                  "avx512, got '",
                  req, "'");
        if (!isaSupported(isa))
            fatal("SPARSEAP_SIMD=", req,
                  " requests an ISA this CPU does not support");
    }
    g_active.store(tableFor(isa), std::memory_order_release);
}

} // namespace

ScanMask
ScanMask::fromBits(const uint64_t raw[4])
{
    ScanMask m{};
    for (int i = 0; i < 4; ++i)
        m.bits[i] = raw[i];
    for (unsigned b = 0; b < 256; ++b) {
        if (!((raw[b >> 6] >> (b & 63)) & 1))
            continue;
        const unsigned lo = b & 0xf;
        const unsigned hi = b >> 4;
        if (hi < 8)
            m.loClear[lo] |= static_cast<uint8_t>(1u << hi);
        else
            m.loSet[lo] |= static_cast<uint8_t>(1u << (hi - 8));
    }
    return m;
}

unsigned
ScanMask::population() const
{
    unsigned sum = 0;
    for (uint64_t w : bits)
        sum += static_cast<unsigned>(__builtin_popcountll(w));
    return sum;
}

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Avx512:
        return "avx512";
    }
    return "scalar";
}

bool
isaSupported(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
#if SPARSEAP_VEC_X86
    case Isa::Avx2:
        return __builtin_cpu_supports("avx2");
    case Isa::Avx512:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw");
#else
    case Isa::Avx2:
    case Isa::Avx512:
        return false;
#endif
    }
    return false;
}

Isa
bestIsa()
{
    if (isaSupported(Isa::Avx512))
        return Isa::Avx512;
    if (isaSupported(Isa::Avx2))
        return Isa::Avx2;
    return Isa::Scalar;
}

const Ops &
ops()
{
    const Ops *p = g_active.load(std::memory_order_acquire);
    if (p == nullptr) {
        std::call_once(g_resolve_once, resolve);
        p = g_active.load(std::memory_order_acquire);
    }
    return *p;
}

Isa
activeIsa()
{
    return ops().isa;
}

bool
setIsa(Isa isa)
{
    if (!isaSupported(isa))
        return false;
    (void)ops(); // make sure the once-resolution has happened
    g_active.store(tableFor(isa), std::memory_order_release);
    return true;
}

} // namespace simd
} // namespace sparseap
