/**
 * @file
 * Environment/flag options shared by the benchmark and example binaries.
 *
 * The harness is driven by environment variables so looping over the
 * bench binaries needs no per-binary arguments:
 *
 *   SPARSEAP_INPUT_KB   input size per application in KiB (default 64)
 *   SPARSEAP_SEED       master RNG seed (default 20181020, MICRO'18 dates)
 *   SPARSEAP_CSV        when set to 1, tables print CSV instead of ASCII
 *   SPARSEAP_APPS       comma-separated list of app abbreviations to run
 *   SPARSEAP_SCALE      workload scale factor in percent (default 100)
 *   SPARSEAP_ENGINE     functional-engine core: sparse|dense|dfa|auto
 *                       (default auto; see docs/PERFORMANCE.md)
 *   SPARSEAP_SIMD       dense-kernel vector width: auto|off|scalar|
 *                       avx2|avx512 (default auto = widest the CPU
 *                       supports; "off" and "scalar" are synonyms; see
 *                       src/common/vec.h)
 *   SPARSEAP_INPUT_SKIP quiescence input skip: auto|on|1 (default)
 *                       enables SIMD-scanning quiescent stretches of
 *                       input instead of stepping them, off|0 disables.
 *                       Reports are byte-identical in both settings
 *                       (see docs/PERFORMANCE.md)
 *   SPARSEAP_JOBS       threads for batch-level parallelism (default 1;
 *                       0 means all hardware threads; clamped to the
 *                       hardware thread count)
 *   SPARSEAP_JSON       when set, benchmark binaries append their tables
 *                       as machine-readable JSON to this file
 *   SPARSEAP_CACHE_DIR  directory of the compiled-artifact cache
 *                       (src/store); empty disables caching
 *   SPARSEAP_CACHE      set to "off" (or "0") to disable the artifact
 *                       cache even when SPARSEAP_CACHE_DIR is set
 *   SPARSEAP_VERBOSE    stderr log level: 0 quiet, 1 status (default),
 *                       2 adds debug lines (src/common/logging.h)
 *   SPARSEAP_TRACE      when set, stream scoped spans to this file as
 *                       Chrome trace-event JSON at process exit (load in
 *                       Perfetto / chrome://tracing); unset = spans
 *                       reduce to one atomic load + branch
 *   SPARSEAP_STATS      end-of-process telemetry summary sink: "-", "1"
 *                       or "stderr" print the ASCII tables to stderr,
 *                       anything else appends them to that file path
 *
 * See docs/OBSERVABILITY.md for the telemetry metric catalog.
 */

#ifndef SPARSEAP_COMMON_OPTIONS_H
#define SPARSEAP_COMMON_OPTIONS_H

#include <cstdint>
#include <string>
#include <vector>

namespace sparseap {

/** Which stepping core the functional engine uses. */
enum class EngineMode {
    Sparse, ///< dynamic enabled-list core (latched/permanent opt)
    Dense,  ///< bit-parallel word-vector core
    Dfa,    ///< determinized hot-set table, NFA dense-core fallback
    Auto,   ///< sparse, switching to dense when the live set is dense
    /**
     * Hot/cold split: shallow states on a DFA, deep ones on the sparse
     * core. A resolved core only — auto reaches it; it is never a
     * configured mode (SPARSEAP_ENGINE does not accept it).
     */
    Split,
};

/** @return "sparse", "dense", "dfa", "auto" or "split". */
const char *engineModeName(EngineMode mode);

/** Parsed global options; read once per process via globalOptions(). */
struct Options
{
    /** Bytes of input stream generated per application. */
    size_t inputBytes = 64 * 1024;
    /** Master seed for all workload generation. */
    uint64_t seed = 20181020;
    /** Print CSV instead of aligned ASCII tables. */
    bool csv = false;
    /** If non-empty, restricts experiments to these app abbreviations. */
    std::vector<std::string> apps;
    /** Workload scale in percent; 100 reproduces paper-sized automata. */
    unsigned scalePercent = 100;
    /** Functional-engine core selection. */
    EngineMode engineMode = EngineMode::Auto;
    /** SPARSEAP_SIMD request, consumed by simd::ops() (common/vec.h). */
    std::string simd = "auto";
    /** Quiescence input skip (SPARSEAP_INPUT_SKIP; default on). */
    bool inputSkip = true;
    /** Threads for batch-level parallelism (resolved; >= 1). */
    unsigned jobs = 1;
    /** If non-empty, benches append JSON results to this file. */
    std::string jsonPath;
    /** Artifact-cache directory; empty means caching is disabled. */
    std::string cacheDir;
    /** Chrome-trace output file; empty means tracing is disabled. */
    std::string tracePath;
    /** Exit-summary sink ("-"/"1"/"stderr" or a file path); empty = off. */
    std::string statsPath;
};

/** @return process-wide options parsed from the environment (cached). */
const Options &globalOptions();

/** Split @p s on @p sep, dropping empty pieces. */
std::vector<std::string> splitString(const std::string &s, char sep);

} // namespace sparseap

#endif // SPARSEAP_COMMON_OPTIONS_H
