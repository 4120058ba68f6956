/**
 * @file
 * On-disk binary format for compiled automata artifacts.
 *
 * A store blob is a single file shaped like sparkey's data files: an
 * append-only payload of *sections* followed by a section table (the
 * index) and fronted by a fixed 64-byte header. Every section starts on
 * a 64-byte boundary, so a read-only mmap of the file hands the dense
 * execution core cache-line-aligned word vectors it can sweep in place —
 * no deserialization, no copies.
 *
 *   +--------------------+  offset 0
 *   | FileHeader (64 B)  |  magic, version, kind, digest, checksums
 *   +--------------------+  offset 64
 *   | SectionEntry[n]    |  id, element size, offset, size, checksum
 *   +--------------------+  aligned to 64
 *   | section payload    |  each section 64-byte aligned, zero padded
 *   | ...                |
 *   +--------------------+  fileSize
 *
 * Integrity: the header carries a checksum of everything after the
 * header (section table + payload), and every section additionally
 * carries its own checksum so `apstore verify` can localize damage. Any
 * bit flip or truncation therefore fails validation before a decoder
 * ever walks the data. The header also embeds the content-address digest
 * the cache filed the blob under, so a renamed or cross-linked file is
 * rejected on open.
 *
 * All integers are little-endian host order: blobs are a same-machine
 * cache format, not an interchange format (the text serializer in
 * nfa/serialize.h remains the portable, human-editable interchange
 * form). The format version is part of every cache key, so a layout
 * change simply misses the cache instead of misreading old files.
 */

#ifndef SPARSEAP_STORE_FORMAT_H
#define SPARSEAP_STORE_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace sparseap {
namespace store {

/** First 8 bytes of every store blob. */
constexpr char kMagic[8] = {'S', 'P', 'A', 'P', 'S', 'T', 'O', '1'};

/** Bumped on any layout change; part of every cache key.
 *  v2: cache-line-aligned accept-row stride + hot-DFA sections.
 *  v3: input-skip scan tables (dense quiescent scan mask + per-state
 *      DFA skip index/bits sections).
 *  v4: one copy of each fact: the dense view's class map and quiescent
 *      scan mask are no longer stored (the view reads the automaton's
 *      class map and derives the mask at load), FaMeta drops its layout
 *      and dense class-count fields, and the DFA skip sections are
 *      required whenever a DFA block is present. */
constexpr uint32_t kFormatVersion = 4;

/** Section payload alignment (one cache line; see file comment). */
constexpr uint64_t kSectionAlign = 64;

/** What a blob contains (one artifact per blob). */
enum class ArtifactKind : uint32_t {
    Raw = 0,           ///< untyped sections (tests, future artifacts)
    FlatAutomaton = 1, ///< flattened automaton incl. dense view
    Profile = 2,       ///< hot/cold profile of one input prefix
    Partition = 3,     ///< prepared partition incl. fragment apps
};

/** @return "flat", "profile", ... for table output. */
const char *artifactKindName(ArtifactKind kind);

/** Fixed 64-byte file header. */
struct FileHeader
{
    char magic[8];         ///< kMagic
    uint32_t version;      ///< kFormatVersion
    uint32_t kind;         ///< ArtifactKind
    uint64_t fileSize;     ///< total file size in bytes
    uint64_t digest;       ///< content-address key of this artifact
    uint64_t checksum;     ///< hash64 of bytes [64, fileSize)
    uint32_t sectionCount; ///< entries in the section table
    uint8_t pad[20];       ///< zero
};
static_assert(sizeof(FileHeader) == 64, "header must stay 64 bytes");

/** One section-table entry (the blob's index). */
struct SectionEntry
{
    uint32_t id;       ///< artifact-defined section id (unique per blob)
    uint32_t elemSize; ///< element size for typed sections, 0 for bytes
    uint64_t offset;   ///< from file start; multiple of kSectionAlign
    uint64_t size;     ///< payload bytes (excluding alignment padding)
    uint64_t checksum; ///< hash64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32, "entry must stay 32 bytes");

/** @return @p n rounded up to the section alignment. */
constexpr uint64_t
alignUp(uint64_t n)
{
    return (n + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

/** Finalizing 64-bit mix (Murmur3). */
constexpr uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/**
 * Checksum/digest hash over a byte range: 8 bytes per round through
 * mix64. Deterministic across processes (no wall clock, no ASLR), which
 * the content-addressed cache depends on.
 */
inline uint64_t
hash64(const void *data, size_t len, uint64_t seed = 0)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = seed ^ (0x9e3779b97f4a7c15ull * (len + 1));
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
    }
    if (i < len) {
        uint64_t w = 0;
        std::memcpy(&w, p + i, len - i);
        h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
    }
    return mix64(h);
}

/**
 * Incremental digest builder for cache keys. Every field is folded with
 * a type-tagged round so ("ab", "c") and ("a", "bc") digest differently.
 */
class DigestBuilder
{
  public:
    DigestBuilder() : h_(mix64(kFormatVersion + 0x5349u)) {}

    DigestBuilder &
    add(uint64_t v)
    {
        h_ = mix64(h_ ^ mix64(v + 1)) + 0x2545f4914f6cdd1dull;
        return *this;
    }

    DigestBuilder &
    add(std::string_view s)
    {
        h_ = mix64(h_ ^ hash64(s.data(), s.size(), 0x73u));
        return *this;
    }

    uint64_t digest() const { return mix64(h_); }

  private:
    uint64_t h_;
};

} // namespace store
} // namespace sparseap

#endif // SPARSEAP_STORE_FORMAT_H
