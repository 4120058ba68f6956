/**
 * @file
 * Input-stream synthesis.
 *
 * Inputs control the hot/cold phenomenology: a pattern prefix *planted* in
 * the stream walks the corresponding NFA some layers deep before dying,
 * heating shallow states; rare full plants reach reporting states. The
 * planting rate and the geometric prefix-length decay are the two knobs
 * each workload tunes to land in its Fig. 1 hot-fraction band.
 */

#ifndef SPARSEAP_WORKLOADS_INPUTS_H
#define SPARSEAP_WORKLOADS_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nfa/nfa.h"

namespace sparseap {

/** Declarative description of one application's input stream. */
struct InputSpec
{
    /** Background byte distribution. */
    enum class Base {
        RandomBytes, ///< uniform over [0, 255]
        Alphabet,    ///< uniform over the `alphabet` string
    };

    Base base = Base::RandomBytes;

    /** Background alphabet for Base::Alphabet. */
    std::string alphabet;

    /** Strings occasionally planted into the stream (pattern literals). */
    std::vector<std::string> plants;

    /** Probability per position of starting a plant. */
    double plantRate = 0.0;

    /**
     * Each planted string is truncated to a geometric prefix: after every
     * copied byte the plant continues with this probability.
     */
    double prefixKeepProb = 0.7;

    /** Probability that a plant is copied in full (a real match). */
    double fullPlantProb = 0.02;

    /**
     * Byte values that only appear after `quietFraction` of the stream
     * (used by PowerEN to make the profiling prefix unrepresentative).
     */
    std::string lateBytes;
    double lateRate = 0.0;
    double quietFraction = 0.02;
};

/** Synthesize @p bytes input bytes from @p spec, deterministically. */
std::vector<uint8_t> synthesizeInput(const InputSpec &spec, size_t bytes,
                                     Rng &rng);

/**
 * Bytes that drive @p nfa from an all-input start to a report: one byte
 * of each state's symbol set along a shortest start→reporting path
 * (BFS). Planted in an input, they make the input report. An NFA with
 * no all-input start is searched from its start-of-data starts
 * instead; plant those bytes at offset 0. Empty when no such path
 * exists.
 */
std::vector<uint8_t> matchingBytes(const Nfa &nfa);

} // namespace sparseap

#endif // SPARSEAP_WORKLOADS_INPUTS_H
