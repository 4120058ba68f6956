/**
 * @file
 * Width-abstracted SIMD kernels for the 64-bit word sweeps of the dense
 * execution core (and any other consumer of WordVector-shaped data).
 *
 * The dense kernel's hot loops — accept-row AND, successor-OR
 * accumulation, next-vector wipes, live-word popcounts — are straight
 * element-wise passes over cache-line-aligned uint64_t arrays, i.e.
 * exactly the shape vector ISAs were built for. This layer exposes them
 * as a small op table so the stepping code is written once against the
 * abstract width:
 *
 *   simd::ops().bitAnd(act, enabled, accept, words);
 *
 * Three implementations are compiled into every binary via
 * function-level target attributes (no special -m flags needed):
 * portable scalar, AVX2 (256-bit) and AVX-512BW (512-bit). The table is
 * resolved ONCE at first use from CPUID — the hot loops pay one cached
 * pointer load, never a per-element branch — and can be overridden:
 *
 *   SPARSEAP_SIMD=auto|off|scalar|avx2|avx512   (process-wide)
 *   simd::setIsa(Isa)                            (tests/benches)
 *
 * A host without AVX2 runs the scalar tier, whose plain loops are
 * auto-vectorizable at the baseline width.
 *
 * "off" and "scalar" are synonyms. Requesting an ISA the CPU lacks is a
 * fatal configuration error for the env var and a false return for
 * setIsa(). Consumers that cache the table (DenseCore grabs it at
 * construction) must be constructed after any setIsa() override.
 *
 * All kernels tolerate arbitrary lengths and unaligned pointers (the
 * vector bodies use unaligned loads, which cost the same as aligned ones
 * on every AVX2/AVX-512 part when the address is in fact aligned). The
 * word buffers they sweep are 64-byte aligned by construction —
 * WordVector's allocator and the store's section alignment — and the
 * dense accept table pads its row stride to a multiple of 8 words, so in
 * practice no load ever splits a cache line.
 */

#ifndef SPARSEAP_COMMON_VEC_H
#define SPARSEAP_COMMON_VEC_H

#include <cstddef>
#include <cstdint>

namespace sparseap {
namespace simd {

/**
 * Instruction-set tiers, in strictly increasing width/capability. The
 * values are exported as the engine.simd_isa gauge and stay fixed, so
 * 1 (a retired 128-bit tier) is never emitted.
 */
enum class Isa : uint8_t {
    Scalar = 0, ///< portable uint64_t loops (auto-vectorizable)
    Avx2 = 2,   ///< 256-bit integer AVX2
    Avx512 = 3, ///< 512-bit AVX-512BW
};

/** @return "scalar", "avx2" or "avx512". */
const char *isaName(Isa isa);

/**
 * A set of byte values prepared for vectorized membership scans
 * (scanForByteMask). bits is the plain 256-bit set; loClear/loSet are
 * the Hyperscan-style "truffle" nibble tables the shuffle-based
 * classifier indexes by the low nibble of each input byte: loClear[lo]
 * holds, as bit hi, membership of byte (hi<<4)|lo for hi < 8, and
 * loSet[lo] holds bit (hi-8) for hi >= 8 (pshufb zeroes lanes whose
 * index byte has the top bit set, which is what splits the two halves).
 * Build with ScanMask::fromBits so the tables always agree with bits.
 */
struct ScanMask
{
    alignas(16) uint8_t loClear[16];
    alignas(16) uint8_t loSet[16];
    uint64_t bits[4];

    /** Derive the nibble tables from a raw 256-bit set. */
    static ScanMask fromBits(const uint64_t raw[4]);

    /** True iff byte @p b is in the set. */
    bool test(uint8_t b) const
    {
        return (bits[b >> 6] >> (b & 63)) & 1;
    }

    /** Number of bytes in the set. */
    unsigned population() const;
};

/** Most mask rows one Ops::multiShiftOrInto call takes. */
constexpr size_t kMaxShiftRows = 8;

/**
 * Element-wise kernels over uint64_t arrays. All lengths are in words;
 * dst may equal a or b (in-place) but must not otherwise overlap.
 */
struct Ops
{
    /** dst[i] = a[i] & b[i]. */
    void (*bitAnd)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                   size_t n);
    /** dst[i] |= src[i]. */
    void (*orInto)(uint64_t *dst, const uint64_t *src, size_t n);
    /** dst[i] = 0. */
    void (*clear)(uint64_t *dst, size_t n);
    /** dst[i] &= ~src[i]. */
    void (*andNotInto)(uint64_t *dst, const uint64_t *src, size_t n);
    /**
     * Multi-shift propagation over @p k <= kMaxShiftRows (mask row,
     * offset) pairs: row j is M_j = rows[j * stride .. j * stride + n)
     * with offset d_j = shifts[j] in [0, 63], and
     *
     *   dst[i] |= OR_j ((src[i] << d_j) | (src[i-1] >> (64 - d_j)))
     *                  & M_j[i]
     *
     * with the second term absent for i = 0 and for d_j = 0: src moves
     * d_j bit positions up across word boundaries and row j selects the
     * bits it may set, all rows in one pass over dst — the dense core's
     * successor step for the states on shift rows (see
     * DenseView::shiftRows). Carries out of src[n-1] are dropped; dst
     * must not overlap src or rows.
     */
    void (*multiShiftOrInto)(uint64_t *dst, const uint64_t *src,
                             const uint64_t *rows, size_t stride,
                             const uint8_t *shifts, size_t k, size_t n);
    /**
     * Summary build: bit i of dst set iff src[i] != 0, for i in
     * [0, n). Writes all ceil(n/64) words of dst — an overwrite with
     * zero tail bits, not an accumulate. dst must not overlap src.
     */
    void (*nonzeroWords)(uint64_t *dst, const uint64_t *src, size_t n);
    /** Sum of per-word popcounts. */
    uint64_t (*popcount)(const uint64_t *src, size_t n);
    /**
     * Input scan: index of the first byte of data[0..n) that is a
     * member of @p mask, or n when none is. The quiescence skip
     * (DenseCore/HotDfa) uses this to jump the input cursor to the next
     * byte that can change the configuration.
     */
    size_t (*scanForByteMask)(const uint8_t *data, size_t n,
                              const ScanMask &mask);
    Isa isa;
};

/**
 * The active op table, resolved on first call from CPUID and the
 * SPARSEAP_SIMD override (see file comment). Thread-safe; the returned
 * reference is valid for the process lifetime.
 */
const Ops &ops();

/** ISA of the active op table. */
Isa activeIsa();

/** Highest tier this CPU supports. */
Isa bestIsa();

/** True iff the CPU can execute @p isa. */
bool isaSupported(Isa isa);

/**
 * Force the active table to @p isa (tests and per-ISA benchmarks).
 * @return false (and leave the table unchanged) when the CPU lacks it.
 */
bool setIsa(Isa isa);

} // namespace simd
} // namespace sparseap

#endif // SPARSEAP_COMMON_VEC_H
