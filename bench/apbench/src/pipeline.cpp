/**
 * @file
 * apbench_pipeline: one pass of the paper's pipeline over the 26 apps,
 * run by run.py in a fresh process per pass.
 *
 *   apbench_pipeline pass --seed N --out FILE [--trace FILE]
 *   apbench_pipeline reference --seed N --out FILE
 *
 * The automata come from SPARSEAP_SEED and the input streams from
 * --seed. When the two are equal, every app is the one
 * ExperimentRunner::load generates.
 *
 * `pass` takes the apps one at a time, on one thread: it generates the
 * app and its input (the set-up), runs topology -> flatten -> profile ->
 * partition -> hot run -> SpAP, then releases the app before the next.
 * Each of these steps is timed. run.py times the whole process, and the
 * steps must account for that time.
 *
 * `reference` computes the correctness gate's other side: Engine::run of
 * the whole app over the same test stream, on two threads. run.py runs
 * it in its own process before the measured passes.
 *
 * The other workload knobs come from the environment run.py sets
 * (SPARSEAP_SCALE, SPARSEAP_INPUT_KB, SPARSEAP_JOBS). The apps carry no
 * cache key, so the artifact store is never consulted.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "common.h"
#include "core/sparseap.h"

using namespace sparseap;
using apbench::Clock;
using apbench::Json;
using apbench::ScopedSpan;
using apbench::SpanLog;

namespace {

constexpr double kProfileFraction = 0.01;

double
msSince(Clock::time_point t0)
{
    return apbench::micros(t0, Clock::now()) / 1000.0;
}

/**
 * The app @p abbr with its input drawn from @p input_seed, built the way
 * ExperimentRunner::generate builds it.
 */
std::unique_ptr<LoadedApp>
makeApp(const std::string &abbr, uint64_t input_seed)
{
    const Options &opts = globalOptions();
    auto app = std::make_unique<LoadedApp>();
    app->entry = findApp(abbr);
    app->workload = generateWorkload(abbr, opts.seed, opts.scalePercent);
    Rng rng(input_seed ^ 0x9e3779b97f4a7c15ull ^
            std::hash<std::string>{}(abbr));
    size_t bytes = opts.inputBytes;
    if (app->workload.inputBytesCap > 0)
        bytes = std::min(bytes, app->workload.inputBytesCap);
    app->input = synthesizeInput(app->workload.input, bytes, rng);
    return app;
}

ExecutionOptions
passOptions(const LoadedApp &app)
{
    return app.execOptions(kProfileFraction, ApConfig::kHalfCore);
}

std::span<const uint8_t>
testStream(const LoadedApp &app, const ExecutionOptions &opts)
{
    const std::span<const uint8_t> input(app.input);
    if (opts.fullInputAsTest)
        return input;
    return input.subspan(profilePrefixLength(opts, input.size()));
}

void
writeSimStats(Json &j, const SpapRunStats &s)
{
    j.open("sim")
        .num("baseline_batches", uint64_t{s.baselineBatches})
        .num("baseap_batches", uint64_t{s.baseApBatches})
        .num("spap_batches", uint64_t{s.spApBatches})
        .num("spap_configured_batches", uint64_t{s.spApConfiguredBatches})
        .num("baseline_cycles", s.baselineCycles)
        .num("baseap_cycles", s.baseApCycles)
        .num("spap_cycles", s.spApCycles)
        .num("spap_consumed_cycles", s.spApConsumedCycles)
        .num("enable_stalls", s.enableStalls)
        .num("jumps", s.jumps)
        .num("enables", s.enables)
        .num("skipped_symbols", s.skippedSymbols)
        .num("baseap_states", uint64_t{s.baseApStates})
        .num("intermediate_states", uint64_t{s.intermediateStates})
        .num("intermediate_reports", uint64_t{s.intermediateReports})
        .num("speedup", s.speedup)
        .close();
}

int
runPass(uint64_t seed, const std::string &out_path,
        const std::string &trace_path)
{
    SpanLog log(!trace_path.empty(), 1);
    Json j;
    j.open().str("mode", "pass").openArray("apps");
    double generate_ms = 0.0;
    for (const CatalogEntry &entry : appCatalog()) {
        const std::string &abbr = entry.abbr;
        const auto g0 = Clock::now();
        std::unique_ptr<LoadedApp> app;
        {
            ScopedSpan span(log, "workloads.generate");
            app = makeApp(abbr, seed);
        }
        const double gen_ms = msSince(g0);
        const ExecutionOptions opts = passOptions(*app);
        const size_t profile_len =
            profilePrefixLength(opts, app->input.size());

        double phase_ms[6] = {};
        auto prep = std::make_unique<PreparedPartition>();
        SpapRunStats stats;
        const auto t0 = Clock::now();
        {
            ScopedSpan app_span(log, "pipeline.app");
            const uint64_t p = app_span.id();
            auto phase = [&](int k, const char *name, auto &&fn) {
                const auto s0 = Clock::now();
                {
                    ScopedSpan span(log, name, p);
                    fn();
                }
                phase_ms[k] = msSince(s0);
            };
            phase(0, "graph.topology", [&] { app->topology(); });
            phase(1, "sim.flatten", [&] { app->flat(); });
            phase(2, "sim.profile", [&] { app->profile(profile_len); });
            phase(3, "partition.prepare",
                  [&] { *prep = preparePartition(*app, opts); });
            phase(4, "sim.hot_run", [&] { prep->hotRunResult(); });
            phase(5, "spap.run", [&] {
                stats = runBaseApSpap(app->topology(), opts, *prep, true);
            });
        }
        const double app_ms = msSince(t0);
        const size_t input_bytes = app->input.size();
        const size_t reports = stats.reports.size();
        const uint64_t digest = apbench::reportDigest(stats.reports);

        // Freeing the app, and handing its pages back so the process
        // peak is the largest app's footprint rather than heap left over
        // from the apps before it.
        const auto r0 = Clock::now();
        {
            ScopedSpan span(log, "workloads.release");
            prep.reset();
            app.reset();
            stats.reports = {};
            ::malloc_trim(0);
        }
        const double rel_ms = msSince(r0);
        generate_ms += gen_ms;

        j.open()
            .str("abbr", abbr)
            .num("generate_ms", gen_ms)
            .num("topology_ms", phase_ms[0])
            .num("flatten_ms", phase_ms[1])
            .num("profile_ms", phase_ms[2])
            .num("prepare_ms", phase_ms[3])
            .num("hot_run_ms", phase_ms[4])
            .num("spap_ms", phase_ms[5])
            .num("release_ms", rel_ms)
            .num("app_ms", app_ms)
            .num("input_bytes", uint64_t{input_bytes})
            .num("reports", uint64_t{reports})
            .str("digest", apbench::hex(digest));
        writeSimStats(j, stats);
        j.close();
    }
    j.closeArray();

    j.num("generate_ms", generate_ms)
        .num("vmhwm_kib", apbench::vmHwmKiB())
        .close();
    if (!trace_path.empty() &&
        !apbench::writeChromeTrace(trace_path, {&log})) {
        std::fprintf(stderr, "apbench_pipeline: cannot write %s\n",
                     trace_path.c_str());
        return 1;
    }
    return apbench::writeFile(out_path, j.text()) ? 0 : 1;
}

int
runReference(uint64_t seed, const std::string &out_path)
{
    const std::vector<CatalogEntry> &apps = appCatalog();
    std::vector<size_t> reports(apps.size());
    std::vector<uint64_t> digests(apps.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next++; i < apps.size(); i = next++) {
            const std::unique_ptr<LoadedApp> app = makeApp(apps[i].abbr, seed);
            Engine engine(app->flat());
            const ReportList r =
                engine.run(testStream(*app, passOptions(*app))).reports;
            reports[i] = r.size();
            digests[i] = apbench::reportDigest(r);
        }
    };
    // Two threads: the reference is not timed, and two apps at full
    // scale fit comfortably in memory at once.
    std::exception_ptr errors[2];
    auto guarded = [&](std::exception_ptr *error) {
        try {
            worker();
        } catch (...) {
            *error = std::current_exception();
        }
    };
    std::thread helper(guarded, &errors[0]);
    guarded(&errors[1]);
    helper.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    Json j;
    j.open().str("mode", "reference").openArray("apps");
    for (size_t i = 0; i < apps.size(); ++i) {
        j.open()
            .str("abbr", apps[i].abbr)
            .num("reports", uint64_t{reports[i]})
            .str("digest", apbench::hex(digests[i]))
            .close();
    }
    j.closeArray().close();
    return apbench::writeFile(out_path, j.text()) ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr, "usage: apbench_pipeline pass|reference --seed N "
                         "--out FILE [--trace FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc % 2 != 0)
        return usage();
    const std::string mode = argv[1];
    std::string seed, out_path, trace_path;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--seed") == 0)
            seed = argv[i + 1];
        else if (std::strcmp(argv[i], "--out") == 0)
            out_path = argv[i + 1];
        else if (std::strcmp(argv[i], "--trace") == 0)
            trace_path = argv[i + 1];
        else
            return usage();
    }
    if (seed.empty() || out_path.empty())
        return usage();
    uint64_t input_seed = 0;
    try {
        input_seed = std::stoull(seed);
    } catch (const std::exception &) {
        return usage();
    }
    if (mode == "pass")
        return runPass(input_seed, out_path, trace_path);
    if (mode == "reference" && trace_path.empty())
        return runReference(input_seed, out_path);
    return usage();
}
