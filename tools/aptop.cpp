/**
 * @file
 * aptop: live terminal dashboard over a running apserved.
 *
 * Polls the daemon's STATS reply (which carries flat totals, rolling-
 * window milli-rates over 10s/1m/5m horizons, and bounded per-tenant
 * labeled series — see docs/OBSERVABILITY.md) and renders a refreshing
 * per-tenant view:
 *
 *   aptop --socket /tmp/ap.sock            refresh every second
 *   aptop --socket /tmp/ap.sock --once     one frame, no clear (CI)
 *   aptop --socket /tmp/ap.sock --json     one frame as JSON, exit
 *   aptop ... --interval MS                poll period
 *
 * Rates come from the server's windows (delta / covered-span computed
 * daemon-side), not from client-side differencing, so a single --once
 * invocation against a warmed daemon already shows live rates.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "telemetry/labels.h"

using namespace sparseap;
using serve::ServeClient;
using serve::StatsReply;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: aptop --socket PATH [--once] [--json] "
                 "[--interval MS]\n");
    return 2;
}

/** Window rates keyed by row name; [0]=10s [1]=1m [2]=5m, milli. */
using WindowMap = std::map<std::string, const uint64_t *>;

double
rate(const WindowMap &w, const std::string &name, size_t horizon)
{
    auto it = w.find(name);
    return it == w.end()
               ? 0.0
               : static_cast<double>(it->second[horizon]) / 1000.0;
}

uint64_t
counter(const std::map<std::string, uint64_t> &c, const std::string &k)
{
    auto it = c.find(k);
    return it == c.end() ? 0 : it->second;
}

uint64_t
tenantCounter(const std::map<std::string, uint64_t> &c,
              const std::string &base, const std::string &tenant)
{
    return counter(c, telemetry::labeledName(base, tenant));
}

double
tenantRate(const WindowMap &w, const std::string &base,
           const std::string &tenant, size_t horizon)
{
    return rate(w, telemetry::labeledName(base, tenant), horizon);
}

void
jsonEscape(std::string *out, const std::string &s)
{
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out->push_back('\\');
        out->push_back(ch);
    }
}

int
printJson(const StatsReply &reply)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : reply.counters) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        jsonEscape(&out, name);
        out += "\":" + std::to_string(value);
    }
    out += "},\"window_span_us\":[";
    for (size_t h = 0; h < serve::kStatsHorizons; ++h) {
        if (h)
            out += ',';
        out += std::to_string(reply.windowSpanMicros[h]);
    }
    out += "],\"windows\":{";
    first = true;
    for (const serve::StatsWindowRow &row : reply.windows) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        jsonEscape(&out, row.name);
        out += "\":[";
        for (size_t h = 0; h < serve::kStatsHorizons; ++h) {
            if (h)
                out += ',';
            out += std::to_string(row.milli[h]);
        }
        out += ']';
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

void
printFrame(const StatsReply &reply)
{
    std::map<std::string, uint64_t> c(reply.counters.begin(),
                                      reply.counters.end());
    WindowMap w;
    for (const serve::StatsWindowRow &row : reply.windows)
        w.emplace(row.name, row.milli);

    std::printf("apserved  streams:%" PRIu64 " resident:%" PRIu64
                " parked:%" PRIu64 " (%.1f KiB)  conns:%" PRIu64
                "-%" PRIu64 "\n",
                counter(c, "serve.active_streams"),
                counter(c, "serve.resident_sessions"),
                counter(c, "serve.parked_sessions"),
                static_cast<double>(counter(c, "serve.parked_bytes")) /
                    1024.0,
                counter(c, "serve.accepted"),
                counter(c, "serve.disconnected"));
    std::printf("totals    requests:%" PRIu64 " admitted:%" PRIu64
                " overload:%" PRIu64 " retry:%" PRIu64 " shed:%" PRIu64
                "  slow:%" PRIu64 "\n",
                counter(c, "serve.requests"),
                counter(c, "serve.admitted"),
                counter(c, "serve.overload"), counter(c, "serve.retry"),
                counter(c, "serve.shed"),
                counter(c, "serve.slow_captured"));
    std::printf("watchdog  ticks:%" PRIu64 " stuck:%" PRIu64
                " stalls:%" PRIu64 "\n",
                counter(c, "serve.watchdog.ticks"),
                counter(c, "serve.watchdog.stuck_workers"),
                counter(c, "serve.watchdog.queue_stalls"));

    static const char *const kHorizonNames[serve::kStatsHorizons] = {
        "10s", "1m", "5m"};
    std::printf("windows   ");
    for (size_t h = 0; h < serve::kStatsHorizons; ++h)
        std::printf("%s:%.1fs ", kHorizonNames[h],
                    static_cast<double>(reply.windowSpanMicros[h]) /
                        1e6);
    std::printf("\n");
    if (!reply.windows.empty()) {
        std::printf("%-22s %10s %10s %10s\n", "rate (per s)",
                    kHorizonNames[0], kHorizonNames[1],
                    kHorizonNames[2]);
        for (const char *name :
             {"serve.requests", "serve.feeds", "serve.fed_bytes"}) {
            std::printf("%-22s %10.1f %10.1f %10.1f\n", name,
                        rate(w, name, 0), rate(w, name, 1),
                        rate(w, name, 2));
        }
        std::printf("%-22s %10.0f %10.0f %10.0f\n",
                    "serve.request_p50_us",
                    rate(w, "serve.request_p50_us", 0),
                    rate(w, "serve.request_p50_us", 1),
                    rate(w, "serve.request_p50_us", 2));
        std::printf("%-22s %10.0f %10.0f %10.0f\n",
                    "serve.request_p99_us",
                    rate(w, "serve.request_p99_us", 0),
                    rate(w, "serve.request_p99_us", 1),
                    rate(w, "serve.request_p99_us", 2));
    }

    // Tenants: every label seen on any serve.* series.
    std::set<std::string> tenants;
    for (const auto &[name, value] : reply.counters) {
        std::string base, label;
        if (telemetry::splitLabeledName(name, &base, &label) &&
            base.rfind("serve.", 0) == 0)
            tenants.insert(label);
    }
    if (tenants.empty()) {
        std::printf("(no per-tenant series yet)\n");
        return;
    }

    std::printf("\n%-10s %8s %8s %9s %9s %5s %5s %5s %5s %5s %9s\n",
                "TENANT", "REQ/S", "SHED/S", "MB/S", "FED_MB", "DFA%",
                "SPL%", "DNS%", "SPR%", "SKIP%", "PARKED_KB");
    for (const std::string &t : tenants) {
        const uint64_t dfa = tenantCounter(c, "serve.dfa_cycles", t);
        const uint64_t split =
            tenantCounter(c, "serve.split_cycles", t);
        const uint64_t dense =
            tenantCounter(c, "serve.dense_cycles", t);
        const uint64_t sparse =
            tenantCounter(c, "serve.sparse_cycles", t);
        const uint64_t cycles = dfa + split + dense + sparse;
        const uint64_t skipped =
            tenantCounter(c, "serve.skip_symbols", t);
        const double denom =
            cycles == 0 ? 1.0 : static_cast<double>(cycles);
        std::printf(
            "%-10s %8.1f %8.1f %9.2f %9.2f %5.1f %5.1f %5.1f %5.1f "
            "%5.1f %9.1f\n",
            t.c_str(), tenantRate(w, "serve.requests", t, 0),
            tenantRate(w, "serve.sheds", t, 0),
            tenantRate(w, "serve.fed_bytes", t, 0) / 1e6,
            static_cast<double>(
                tenantCounter(c, "serve.fed_bytes", t)) /
                1e6,
            100.0 * static_cast<double>(dfa) / denom,
            100.0 * static_cast<double>(split) / denom,
            100.0 * static_cast<double>(dense) / denom,
            100.0 * static_cast<double>(sparse) / denom,
            100.0 * static_cast<double>(skipped) / denom,
            static_cast<double>(
                tenantCounter(c, "serve.parked_bytes", t)) /
                1024.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    bool once = false;
    bool json = false;
    unsigned interval_ms = 1000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value)
            socket_path = argv[++i];
        else if (arg == "--once")
            once = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--interval" && has_value)
            interval_ms =
                static_cast<unsigned>(std::stoul(argv[++i]));
        else
            return usage();
    }
    if (socket_path.empty())
        return usage();

    ServeClient client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        std::fprintf(stderr, "aptop: %s\n", error.c_str());
        return 1;
    }

    for (;;) {
        StatsReply reply;
        const ServeClient::Result r = client.stats(&reply);
        if (r.status != ServeClient::Status::Ok) {
            std::fprintf(stderr, "aptop: stats request failed\n");
            return 1;
        }
        if (json)
            return printJson(reply);
        if (!once)
            std::printf("\x1b[2J\x1b[H"); // clear + home
        printFrame(reply);
        std::fflush(stdout);
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}
