/**
 * @file
 * An intentionally naive, independent NFA simulator used as the oracle in
 * property tests. It shares no code or data structures with the library
 * engine: per-NFA std::set enabled sets, no dispatch tables, no epochs.
 */

#ifndef SPARSEAP_TESTS_SUPPORT_NAIVE_SIM_H
#define SPARSEAP_TESTS_SUPPORT_NAIVE_SIM_H

#include <cstdint>
#include <span>
#include <vector>

#include "nfa/application.h"
#include "sim/report.h"

namespace sparseap::testing {

/** Reports of a whole-application run, sorted. */
ReportList naiveSimulate(const Application &app,
                         std::span<const uint8_t> input);

/** The set of states (global ids) ever enabled during the run. */
std::vector<bool> naiveHotSet(const Application &app,
                              std::span<const uint8_t> input);

} // namespace sparseap::testing

#endif // SPARSEAP_TESTS_SUPPORT_NAIVE_SIM_H
