#include "common/options.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace sparseap {

const char *
engineModeName(EngineMode mode)
{
    switch (mode) {
    case EngineMode::Sparse:
        return "sparse";
    case EngineMode::Dense:
        return "dense";
    case EngineMode::Dfa:
        return "dfa";
    case EngineMode::Auto:
        return "auto";
    case EngineMode::Split:
        return "split";
    }
    return "auto";
}

std::vector<std::string>
splitString(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : s) {
        if (ch == sep) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

namespace {

Options
parseEnvironment()
{
    Options opt;
    if (const char *v = std::getenv("SPARSEAP_INPUT_KB")) {
        long kb = std::atol(v);
        if (kb <= 0)
            fatal("SPARSEAP_INPUT_KB must be positive, got '", v, "'");
        opt.inputBytes = static_cast<size_t>(kb) * 1024;
    }
    if (const char *v = std::getenv("SPARSEAP_SEED"))
        opt.seed = std::strtoull(v, nullptr, 10);
    if (const char *v = std::getenv("SPARSEAP_CSV"))
        opt.csv = v[0] == '1';
    if (const char *v = std::getenv("SPARSEAP_APPS"))
        opt.apps = splitString(v, ',');
    if (const char *v = std::getenv("SPARSEAP_SCALE")) {
        long pct = std::atol(v);
        if (pct <= 0 || pct > 400)
            fatal("SPARSEAP_SCALE must be in (0, 400], got '", v, "'");
        opt.scalePercent = static_cast<unsigned>(pct);
    }
    if (const char *v = std::getenv("SPARSEAP_ENGINE")) {
        if (std::strcmp(v, "sparse") == 0)
            opt.engineMode = EngineMode::Sparse;
        else if (std::strcmp(v, "dense") == 0)
            opt.engineMode = EngineMode::Dense;
        else if (std::strcmp(v, "dfa") == 0)
            opt.engineMode = EngineMode::Dfa;
        else if (std::strcmp(v, "auto") == 0)
            opt.engineMode = EngineMode::Auto;
        else
            fatal("SPARSEAP_ENGINE must be sparse, dense, dfa or auto, "
                  "got '",
                  v, "'");
    }
    if (const char *v = std::getenv("SPARSEAP_SIMD"))
        opt.simd = v; // validated by simd::ops() (common/vec.cc)
    if (const char *v = std::getenv("SPARSEAP_INPUT_SKIP")) {
        if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0)
            opt.inputSkip = false;
        else if (std::strcmp(v, "auto") != 0 &&
                 std::strcmp(v, "on") != 0 && std::strcmp(v, "1") != 0)
            fatal("SPARSEAP_INPUT_SKIP must be auto, on, 1, off or 0, "
                  "got '",
                  v, "'");
    }
    if (const char *v = std::getenv("SPARSEAP_JOBS")) {
        long jobs = std::atol(v);
        if (jobs < 0)
            fatal("SPARSEAP_JOBS must be >= 0, got '", v, "'");
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        // Clamp to the core count: the batch loop is CPU-bound, so
        // oversubscribing only adds scheduling contention.
        opt.jobs = jobs == 0 ? hw
                             : std::min(static_cast<unsigned>(jobs), hw);
    }
    if (const char *v = std::getenv("SPARSEAP_JSON"))
        opt.jsonPath = v;
    if (const char *v = std::getenv("SPARSEAP_CACHE_DIR"))
        opt.cacheDir = v;
    if (const char *v = std::getenv("SPARSEAP_CACHE")) {
        if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0)
            opt.cacheDir.clear();
        else if (std::strcmp(v, "on") != 0 && std::strcmp(v, "1") != 0)
            fatal("SPARSEAP_CACHE must be on/off/1/0, got '", v, "'");
    }
    if (const char *v = std::getenv("SPARSEAP_TRACE"))
        opt.tracePath = v;
    if (const char *v = std::getenv("SPARSEAP_STATS"))
        opt.statsPath = v;
    return opt;
}

} // namespace

const Options &
globalOptions()
{
    static const Options opt = parseEnvironment();
    return opt;
}

} // namespace sparseap
