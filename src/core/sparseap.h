/**
 * @file
 * Umbrella header: the SparseAP library public API.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   #include "core/sparseap.h"
 *
 *   sparseap::Application app = ...;            // build or load NFAs
 *   sparseap::AppTopology topo(app);            // SCC + layering
 *   sparseap::ExecutionOptions opts;            // capacity, profiling
 *   auto stats = sparseap::runBaseApSpap(topo, opts, input);
 *   // stats.speedup, stats.reports, ...
 */

#ifndef SPARSEAP_CORE_SPARSEAP_H
#define SPARSEAP_CORE_SPARSEAP_H

#include "ap/batching.h"
#include "ap/config.h"
#include "ap/timing.h"
#include "common/bitset256.h"
#include "common/logging.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/experiment.h"
#include "graph/scc.h"
#include "graph/topology.h"
#include "nfa/application.h"
#include "nfa/nfa.h"
#include "nfa/serialize.h"
#include "nfa/symbol_set.h"
#include "partition/app_topology.h"
#include "partition/fill.h"
#include "partition/hotcold.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "regex/glushkov.h"
#include "regex/parser.h"
#include "sim/engine.h"
#include "sim/flat_automaton.h"
#include "sim/prefix_merge.h"
#include "sim/profiler.h"
#include "sim/report.h"
#include "spap/ap_cpu.h"
#include "spap/executor.h"
#include "spap/spap_engine.h"
#include "store/artifact.h"
#include "store/blob.h"
#include "store/cache.h"
#include "store/format.h"
#include "store/mapped_file.h"
#include "workloads/becchi.h"
#include "workloads/brill.h"
#include "workloads/clamav.h"
#include "workloads/entity_resolution.h"
#include "workloads/fermi.h"
#include "workloads/hamming.h"
#include "workloads/inputs.h"
#include "workloads/levenshtein.h"
#include "workloads/poweren.h"
#include "workloads/protomata.h"
#include "workloads/random_forest.h"
#include "workloads/registry.h"
#include "workloads/snort.h"
#include "workloads/spm.h"
#include "workloads/workload.h"

#endif // SPARSEAP_CORE_SPARSEAP_H
