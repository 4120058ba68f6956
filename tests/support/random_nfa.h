/**
 * @file
 * Random automata for property-based tests.
 */

#ifndef SPARSEAP_TESTS_SUPPORT_RANDOM_NFA_H
#define SPARSEAP_TESTS_SUPPORT_RANDOM_NFA_H

#include "common/rng.h"
#include "graph/topology.h"
#include "nfa/application.h"

namespace sparseap::testing {

/** Shape knobs for random NFA generation. */
struct RandomNfaParams
{
    size_t minStates = 3;
    size_t maxStates = 24;
    /** Average successors per state. */
    double avgOutDegree = 1.6;
    /** Probability of an extra back edge (creates cycles / SCCs). */
    double backEdgeProb = 0.15;
    /** Probability a state is reporting. */
    double reportProb = 0.2;
    /** Extra all-input start states beyond the first. */
    double extraStartProb = 0.2;
    /** Probability start states are start-of-data instead of all-input. */
    double sodProb = 0.0;
    /** Symbols per state's symbol-set (small sets keep runs sparse). */
    unsigned minSymbols = 1;
    unsigned maxSymbols = 24;
    /** Restrict symbols to [0, alphabetSize). */
    unsigned alphabetSize = 32;
    /**
     * Probability a state accepts every byte (a `.*`-style wildcard);
     * half of those get a self-loop — this exercises the engine's
     * latching fast path against the naive oracle.
     */
    double universalProb = 0.12;
};

/** Generate one finalized random NFA with at least one start state. */
Nfa randomNfa(Rng &rng, const RandomNfaParams &params,
              const std::string &name = "rand");

/** Generate an application of @p nfa_count random NFAs. */
Application randomApplication(Rng &rng, size_t nfa_count,
                              const RandomNfaParams &params = {});

/**
 * Rule-set-shaped random application, the shape prefix merging folds.
 * Each NFA is a literal chain: one of a few shared prefixes, then
 * usually a `.*` gap (a universal self-loop state), then a shared or
 * its own literal tail ending in a reporting state. NFAs that draw the
 * same prefix repeat its states, and twin gaps after one prefix (and
 * the shared tails behind them) are forward-equivalent. Some NFAs start
 * at start of data, some carry a self-looping tail state (`b+`) or a
 * second reporting state mid-chain, and some tails loop back, a cycle
 * the merge keeps whole. Symbols lie in [0, alphabet_size).
 *
 * @param matches receives, per NFA, one input that makes it report
 *        (from offset 0 for a start-of-data NFA)
 */
Application randomRuleSet(Rng &rng, size_t nfa_count,
                          unsigned alphabet_size,
                          std::vector<std::vector<uint8_t>> *matches);

/**
 * Copy each NFA's matching bytes (@p matches, one per NFA of @p app,
 * e.g. from matchingBytes) into @p input: at offset 0 for an NFA
 * without an all-input start, elsewhere at a random offset. Empty or
 * overlong ones are skipped; a later plant may overwrite an earlier one.
 */
void plantMatches(const Application &app,
                  const std::vector<std::vector<uint8_t>> &matches,
                  Rng &rng, std::vector<uint8_t> *input);

/** Generate a random input over [0, alphabetSize). */
std::vector<uint8_t> randomInput(Rng &rng, size_t len,
                                 unsigned alphabet_size);

/**
 * The smallest legal partition layer for an NFA: start states are always
 * enabled (hence hot), so a cut may never place one in the cold set.
 */
uint32_t minPartitionLayer(const Nfa &nfa, const Topology &topo);

} // namespace sparseap::testing

#endif // SPARSEAP_TESTS_SUPPORT_RANDOM_NFA_H
