/**
 * @file
 * Typed artifact codecs over the blob container: what actually goes into
 * a store file for each compiled-pipeline product.
 *
 *  - FlatAutomaton — every array of the flattened automaton plus its
 *    fully-materialized dense view (accept table, start dispatch,
 *    latchable masks, word-level CSRs), each stored once, and the hot
 *    DFA with its skip tables when one was built. Decoding is
 *    zero-copy: the returned automaton's spans alias the blob's
 *    mapping, which stays alive through the shared backing handle.
 *  - HotColdProfile — one bit-packed hot set per blob, keyed by the
 *    profiling prefix length.
 *  - Application — binary NFA bag (states, symbol sets, edge CSR);
 *    used to embed partition fragments. The text format in
 *    nfa/serialize.h remains the portable/human-editable interchange.
 *  - PreparedPartition — partition layers, translation tables, batch
 *    assignments, the hot and cold fragment applications, and the hot
 *    fragment's FlatAutomaton, all in one blob.
 *
 * Section ids are base-relative so one blob can embed several automata
 * or applications (the partition artifact embeds three). Decoders return
 * false/nullptr with an error string on any structural inconsistency.
 * Blob checksums reject corruption, but not a blob written with valid
 * checksums by a different (buggy, future or hostile) encoder, so the
 * FlatAutomaton decoder also range-checks every index it adopts: class
 * ids, state ids, dense word indices and CSR offsets.
 */

#ifndef SPARSEAP_STORE_ARTIFACT_H
#define SPARSEAP_STORE_ARTIFACT_H

#include <memory>
#include <string>

#include "partition/hotcold.h"
#include "sim/flat_automaton.h"
#include "spap/executor.h"
#include "store/blob.h"

namespace sparseap {
namespace store {

// ---------------------------------------------------------------- ids --

/** FlatAutomaton section ids, relative to a base. */
enum FaSection : uint32_t {
    kFaMeta = 0,
    kFaSymbols,
    kFaReporting,
    kFaStart,
    kFaSuccBegin,
    kFaSucc,
    kFaStartTableBegin,
    kFaStartTable,
    kFaSodStarts,
    kFaAllInputStarts,
    kFaClassOf,
    kFaClassRep,
    // The dense view's persisted arrays (FlatAutomaton::DenseArrays).
    // Its class map is kFaClassOf; its quiescent scan mask is derived
    // at load.
    kFaDenseAccept,
    kFaDenseReporting,
    kFaDenseAllInputStarts,
    kFaDenseSodStarts,
    kFaDenseLatchable,
    kFaDenseSuccBegin,
    kFaDenseSuccWordIdx,
    kFaDenseSuccWordMask,
    kFaDenseStartBegin,
    kFaDenseStartWordIdx,
    kFaDenseStartWordMask,
    kFaDenseStartSuccBegin,
    kFaDenseStartSuccWordIdx,
    kFaDenseStartSuccWordMask,
    // Optional hot-DFA block (sim/hot_dfa.h): present only when the
    // automaton had been determinized at encode time. Warm loads attach
    // it so they skip subset construction entirely. When kFaDfaMeta is
    // present, every other section of the block is required, the
    // per-state input-skip index and masks included.
    kFaDfaMeta,
    kFaDfaTable,
    kFaDfaReportBegin,
    kFaDfaReportIds,
    kFaDfaSkipIndex,
    kFaDfaSkipBits,
    kFaSectionCount, ///< ids per embedded automaton
};

/** Application section ids, relative to a base. */
enum AppSection : uint32_t {
    kAppMeta = 0,
    kAppName,
    kAppAbbr,
    kAppNfaNameBegin,
    kAppNfaNames,
    kAppNfaStateBegin,
    kAppSymbols,
    kAppStart,
    kAppReporting,
    kAppSuccBegin,
    kAppSucc,
    kAppSectionCount, ///< ids per embedded application
};

/** Profile section ids (profile blobs hold exactly one profile). */
enum ProfileSection : uint32_t {
    kProfileMeta = 1,
    kProfileHotWords,
};

/** Partition blob layout: tables at the root, three embedded objects. */
enum PartSection : uint32_t {
    kPartMeta = 1,
    kPartLayers,
    kPartHotToOriginal,
    kPartIntermediateTarget,
    kPartColdToOriginal,
    kPartOriginalToCold,
    kPartColdNfaToOriginal,
    kPartNfaBatch,
};
constexpr uint32_t kPartHotAppBase = 100;  ///< hot fragment Application
constexpr uint32_t kPartColdAppBase = 200; ///< cold fragment Application
constexpr uint32_t kPartHotFaBase = 300;   ///< hot FlatAutomaton

// -------------------------------------------------------------- metas --

/** kFaMeta payload. */
struct FaMeta
{
    uint64_t states;
    uint64_t succCount;
    uint32_t classCount;
    uint8_t pad[4];
    uint64_t denseWords;
};

/** kFaDfaMeta payload. */
struct DfaMeta
{
    uint64_t states;
    uint64_t classes;
    uint64_t reportCount;
};

/** kAppMeta payload. */
struct AppMeta
{
    uint64_t nfaCount;
    uint64_t stateCount;
    uint64_t succCount;
    uint8_t group; ///< ResourceGroup
    uint8_t pad[7];
};

/** kProfileMeta payload. */
struct ProfileMeta
{
    uint64_t states;
    uint64_t prefixLen;
    uint64_t hotCount; ///< cross-check for the packed words
};

/** kPartMeta payload. */
struct PartMeta
{
    uint64_t layerCount; ///< NFAs of the original application
    uint64_t intermediateCount;
    uint64_t hotOriginalReporting;
    uint64_t coldReporting;
    /** Capacity the stored kPartNfaBatch assignment was packed for. */
    uint64_t batchCapacity;
};

// ------------------------------------------------------------- codecs --

/** Append @p fa (arrays + dense view) to @p w at section base @p base. */
void encodeFlatAutomaton(const FlatAutomaton &fa, BlobWriter &w,
                         uint32_t base = 0);

/**
 * Decode a FlatAutomaton embedded at @p base, zero-copy over the blob's
 * mapping. @return nullptr with @p *error set on structural mismatch.
 */
std::unique_ptr<FlatAutomaton>
decodeFlatAutomaton(const BlobView &blob, uint32_t base,
                    std::string *error);

/** Append @p app (binary NFA bag) to @p w at section base @p base. */
void encodeApplication(const Application &app, BlobWriter &w,
                       uint32_t base = 0);

/** Decode an Application embedded at @p base. */
bool decodeApplication(const BlobView &blob, uint32_t base,
                       Application *out, std::string *error);

/** Append the profile of a @p prefix_len-byte prefix to @p w. */
void encodeProfile(const HotColdProfile &profile, size_t prefix_len,
                   BlobWriter &w);

/** Decode a profile blob. */
bool decodeProfile(const BlobView &blob, HotColdProfile *out,
                   size_t *prefix_len, std::string *error);

/**
 * Append @p prep to @p w: layers, translation tables, the cold batch
 * assignment for @p capacity (as packColdBatches would compute it), the
 * hot/cold fragment applications, and the hot FlatAutomaton (with dense
 * view; materialized here if needed).
 */
void encodePreparedPartition(const PreparedPartition &prep,
                             size_t capacity, BlobWriter &w);

/**
 * Decode a partition blob into @p out. testInput/profileInput are left
 * empty — they are views into the caller's input stream and must be
 * re-derived from the execution options.
 */
bool decodePreparedPartition(const BlobView &blob, PreparedPartition *out,
                             std::string *error);

} // namespace store
} // namespace sparseap

#endif // SPARSEAP_STORE_ARTIFACT_H
