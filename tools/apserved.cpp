/**
 * @file
 * apserved: the streaming match daemon.
 *
 * Loads the named applications (from the artifact cache when warm — set
 * SPARSEAP_CACHE_DIR), registers each as a tenant of a MatchService,
 * and serves the framing protocol (serve/protocol.h) on a Unix-domain
 * socket until SIGINT/SIGTERM. apclient is the matching CLI.
 *
 *   apserved --socket /tmp/ap.sock --apps Bro217,Brill \
 *            [--workers N] [--resident N] [--queue N] [--tenant-cap N] \
 *            [--deadline-ms N] [--max-conns N] \
 *            [--metrics-file PATH] [--sample-ms N] [--slow-us N] \
 *            [--log PATH[:LEVEL]]
 *
 * Engine knobs come from the usual environment (SPARSEAP_ENGINE,
 * SPARSEAP_SEED, SPARSEAP_SCALE, ...); the flags above size the serving
 * layer: --resident caps live engine sessions (rest are parked
 * snapshots), --queue/--tenant-cap/--deadline-ms configure admission
 * control (see docs/SERVING.md §Overload).
 *
 * Observability (docs/OBSERVABILITY.md): --metrics-file republishes a
 * Prometheus text exposition every sample period, --slow-us sets the
 * slow-request capture threshold, --log opens the structured JSON
 * event log (equivalent to SPARSEAP_LOG/SPARSEAP_LOG_LEVEL).
 * `aptop --socket ...` is the live dashboard over the STATS reply.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sparseap.h"
#include "serve/server.h"
#include "telemetry/event_log.h"

using namespace sparseap;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: apserved --socket PATH --apps A[,B...] [options]\n"
        "  --workers N      worker threads (default 4)\n"
        "  --resident N     live-session budget (default 64)\n"
        "  --queue N        admission queue depth (default 256)\n"
        "  --tenant-cap N   per-tenant in-flight cap (default 64)\n"
        "  --deadline-ms N  queue-wait deadline, 0 = none (default 0)\n"
        "  --max-conns N    connection cap (default 256)\n"
        "  --metrics-file P rewrite Prometheus exposition at P every "
        "sample\n"
        "  --sample-ms N    observer sample period (default 1000)\n"
        "  --slow-us N      slow-request capture threshold "
        "(default 250000)\n"
        "  --log P[:LEVEL]  JSON event log to P (-"
        " = stderr; level debug|info|warn|error)\n");
    return 2;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string apps_arg;
    std::string log_arg;
    serve::ServerConfig scfg;
    serve::MatchServiceConfig mcfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        auto value = [&]() -> std::string {
            return has_value ? argv[++i] : std::string();
        };
        if (arg == "--socket" && has_value)
            socket_path = value();
        else if (arg == "--apps" && has_value)
            apps_arg = value();
        else if (arg == "--workers" && has_value)
            scfg.workers = static_cast<unsigned>(std::stoul(value()));
        else if (arg == "--resident" && has_value)
            mcfg.residentSessions = std::stoul(value());
        else if (arg == "--queue" && has_value)
            scfg.admission.queueDepth = std::stoul(value());
        else if (arg == "--tenant-cap" && has_value)
            scfg.admission.perTenantInFlight = std::stoul(value());
        else if (arg == "--deadline-ms" && has_value)
            scfg.admission.deadlineMicros = std::stoul(value()) * 1000;
        else if (arg == "--max-conns" && has_value)
            scfg.maxConnections = std::stoul(value());
        else if (arg == "--metrics-file" && has_value)
            scfg.observability.metricsPath = value();
        else if (arg == "--sample-ms" && has_value)
            scfg.observability.samplePeriodMillis = std::stoul(value());
        else if (arg == "--slow-us" && has_value)
            scfg.observability.slowRequestMicros = std::stoul(value());
        else if (arg == "--log" && has_value)
            log_arg = value();
        else
            return usage();
    }
    if (socket_path.empty() || apps_arg.empty())
        return usage();
    scfg.socketPath = socket_path;

    if (!log_arg.empty()) {
        std::string path = log_arg;
        telemetry::LogLevel level = telemetry::LogLevel::Info;
        const size_t colon = log_arg.rfind(':');
        if (colon != std::string::npos &&
            telemetry::parseLogLevel(log_arg.substr(colon + 1), &level))
            path = log_arg.substr(0, colon);
        telemetry::initEventLog(path, level);
    }

    // The runner owns the LoadedApps (and through them the automata);
    // it must outlive the service and the server, so the tenants' fa
    // pointers alias into it with no-op deleters.
    ExperimentRunner runner;
    serve::MatchService service(mcfg);
    for (const std::string &abbr : splitList(apps_arg)) {
        const LoadedApp &app = runner.load(abbr);
        const FlatAutomaton &fa = app.flat();
        // Decide the core from the app's own profiling prefix, over the
        // alphabet served streams declare, so that no client's first
        // stream decides for the tenant.
        fa.decideCore(app.input, Bitset256::all());
        // Determinize at load up to auto's DFA size cap: larger
        // automata overrun the subset-construction budget, so the
        // attempt would only cost time and memory.
        const char *dfa = "no DFA: above the auto DFA size cap";
        if (fa.size() <= Engine::kMaxAutoDfaStates)
            dfa = fa.ensureHotDfa() ? "DFA" : "no DFA: budget bailout";
        const std::optional<CoreDecision> d = fa.coreDecision();
        inform("tenant ", abbr, ": ", fa.size(), " states, ", dfa, "; ",
               d ? d->describe() : std::string("sparse core, undecided"));
        service.addTenant(
            abbr,
            std::shared_ptr<const FlatAutomaton>(&fa,
                                                 [](const auto *) {}));
    }

    // Handlers go in before the socket answers: a SIGTERM that lands
    // right after the first reply must still drain through stop().
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    serve::Server server(&service, scfg);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "apserved: %s\n", error.c_str());
        return 1;
    }

    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server.stop();
    const serve::StatsReply final_stats = server.statsReply();
    for (const auto &[key, v] : final_stats.counters)
        inform(key, " = ", v);
    return 0;
}
