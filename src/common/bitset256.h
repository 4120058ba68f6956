/**
 * @file
 * A fixed 256-bit set used to represent NFA symbol-sets.
 *
 * The Automata Processor stores one DRAM column of 256 bits per state
 * transition element (STE); bit b is set iff the STE accepts input symbol b.
 * This class is the software mirror of that column.
 */

#ifndef SPARSEAP_COMMON_BITSET256_H
#define SPARSEAP_COMMON_BITSET256_H

#include <array>
#include <cstdint>
#include <cstddef>

namespace sparseap {

/**
 * Dense 256-bit set over the byte alphabet [0, 255].
 *
 * All operations are constexpr-friendly and branch-free where it matters;
 * the functional simulator calls test() once per enabled state per cycle.
 */
class Bitset256
{
  public:
    /** Construct the empty set. */
    constexpr Bitset256() : words{0, 0, 0, 0} {}

    /** @return a set containing every symbol. */
    static constexpr Bitset256
    all()
    {
        Bitset256 s;
        s.words = {~0ull, ~0ull, ~0ull, ~0ull};
        return s;
    }

    /** @return a set containing exactly @p symbol. */
    static constexpr Bitset256
    single(uint8_t symbol)
    {
        Bitset256 s;
        s.set(symbol);
        return s;
    }

    /** @return a set containing the inclusive range [lo, hi]. */
    static constexpr Bitset256
    range(uint8_t lo, uint8_t hi)
    {
        Bitset256 s;
        for (unsigned b = lo; b <= hi; ++b)
            s.set(static_cast<uint8_t>(b));
        return s;
    }

    /** Add @p symbol to the set. */
    constexpr void
    set(uint8_t symbol)
    {
        words[symbol >> 6] |= 1ull << (symbol & 63);
    }

    /** Remove @p symbol from the set. */
    constexpr void
    reset(uint8_t symbol)
    {
        words[symbol >> 6] &= ~(1ull << (symbol & 63));
    }

    /** @return true iff @p symbol is in the set. */
    constexpr bool
    test(uint8_t symbol) const
    {
        return (words[symbol >> 6] >> (symbol & 63)) & 1;
    }

    /** @return the number of symbols in the set. */
    int
    count() const
    {
        int n = 0;
        for (uint64_t w : words)
            n += __builtin_popcountll(w);
        return n;
    }

    /** @return true iff the set is empty. */
    constexpr bool
    empty() const
    {
        return (words[0] | words[1] | words[2] | words[3]) == 0;
    }

    /** @return the set folded to 64 bits: bit b & 63 for each byte b. */
    constexpr uint64_t
    fold64() const
    {
        return words[0] | words[1] | words[2] | words[3];
    }

    /** Set union, in place. */
    constexpr Bitset256 &
    operator|=(const Bitset256 &o)
    {
        for (int i = 0; i < 4; ++i)
            words[i] |= o.words[i];
        return *this;
    }

    /** Set intersection, in place. */
    constexpr Bitset256 &
    operator&=(const Bitset256 &o)
    {
        for (int i = 0; i < 4; ++i)
            words[i] &= o.words[i];
        return *this;
    }

    /** @return the complement of this set. */
    constexpr Bitset256
    operator~() const
    {
        Bitset256 s;
        for (int i = 0; i < 4; ++i)
            s.words[i] = ~words[i];
        return s;
    }

    friend constexpr Bitset256
    operator|(Bitset256 a, const Bitset256 &b)
    {
        a |= b;
        return a;
    }

    friend constexpr Bitset256
    operator&(Bitset256 a, const Bitset256 &b)
    {
        a &= b;
        return a;
    }

    constexpr bool
    operator==(const Bitset256 &o) const
    {
        return words == o.words;
    }

    constexpr bool
    operator!=(const Bitset256 &o) const
    {
        return !(*this == o);
    }

    /** @return a stable 64-bit hash of the set contents. */
    uint64_t
    hash() const
    {
        uint64_t h = 0x9e3779b97f4a7c15ull;
        for (uint64_t w : words) {
            h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        }
        return h;
    }

    /** Raw 4x64-bit storage, LSB-first. */
    std::array<uint64_t, 4> words;
};

} // namespace sparseap

#endif // SPARSEAP_COMMON_BITSET256_H
