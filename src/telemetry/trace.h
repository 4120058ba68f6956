/**
 * @file
 * Scoped spans: the one span API, with its sink chosen at runtime.
 *
 * A span covers one scope (`SPARSEAP_SPAN("partition.fill")`) and
 * records begin/end timestamps plus optional key/value args. At
 * construction it picks its sink:
 *  - a RequestTrace installed on this thread (telemetry/request_trace.h):
 *    the span joins that request's tree at the current depth, and
 *    RequestTrace::finish() later streams the tree into the Chrome
 *    session and, for slow requests, the slow-request ring;
 *  - otherwise the active Chrome trace session: the span is written as
 *    one complete ("ph":"X") trace event. Load the resulting file in
 *    Perfetto (ui.perfetto.dev) or chrome://tracing;
 *  - with neither, nothing is recorded.
 *
 * Sessions start in one of two ways:
 *  - `SPARSEAP_TRACE=<file>` in the environment: the session begins on
 *    first span use and flushes at process exit;
 *  - an explicit `TraceSession` object (tests, tools): flushes when the
 *    object dies.
 *
 * Cost model: with no sink a span is one thread_local load, one relaxed
 * atomic load and two branches — no clock read, no allocation. The
 * per-symbol step loops carry no spans at all, so kernel throughput is
 * unaffected either way; spans sit at request/batch/phase/app
 * granularity.
 *
 * `SPARSEAP_PHASE("flatten")` is a span that additionally records its
 * duration into the `phase.flatten_us` histogram metric even when no
 * sink is active, so pipeline phase timings always show up in
 * telemetry snapshots.
 */

#ifndef SPARSEAP_TELEMETRY_TRACE_H
#define SPARSEAP_TELEMETRY_TRACE_H

#include <cstdint>
#include <string>

#include "telemetry/metrics.h"

namespace sparseap {
namespace telemetry {

/** @return true iff a trace session is active (fast, lock-free). */
bool traceEnabled();

/** RAII trace session writing to @p path on destruction (or abandon()).
 *  Replaces any environment-driven session while alive. */
class TraceSession
{
  public:
    explicit TraceSession(std::string path);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Flush now and end the session early. */
    void finish();

  private:
    bool active_ = true;
};

class RequestTrace;

/** One scope = one span in the sink chosen at construction (see file
 *  comment). */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) { begin(name); }

    ScopedSpan(const char *name, const char *key, uint64_t value)
    {
        if (begin(name))
            arg(key, value);
    }

    ScopedSpan(const char *name, const char *key,
               const std::string &value)
    {
        if (begin(name))
            arg(key, value);
    }

    ScopedSpan(const char *name, const char *k1, uint64_t v1,
               const char *k2, uint64_t v2)
    {
        if (begin(name)) {
            arg(k1, v1);
            arg(k2, v2);
        }
    }

    ~ScopedSpan()
    {
        if (name_)
            end();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach one numeric arg (no-op when not recording). */
    void arg(const char *key, uint64_t value);

    /** Attach one string arg (no-op when not recording). */
    void arg(const char *key, const std::string &value);

  private:
    /** Pick the sink and start the clock; @return true iff recording. */
    bool begin(const char *name);
    void end();

    const char *name_ = nullptr;      ///< non-null iff recording
    RequestTrace *request_ = nullptr; ///< the request-tree sink, if any
    uint32_t depth_ = 0;              ///< depth in request_'s tree
    uint64_t t0_us_ = 0;
    std::string args_; ///< pre-rendered JSON members ("\"k\":v,...")
};

/** Span + always-on duration histogram (see file comment). */
class ScopedPhase
{
  public:
    ScopedPhase(HistogramMetric &hist, const char *span_name);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    HistogramMetric &hist_;
    uint64_t t0_us_;
    ScopedSpan span_;
};

/** Monotonic microseconds since process start (trace timebase). */
uint64_t nowMicros();

/**
 * Append one pre-timed complete event to the active trace session
 * (no-op without one). For span sources that buffer their own timings
 * — request-scoped traces replay their span tree through this at
 * request end. @p args: pre-rendered JSON members ("\"k\":v,...") or
 * empty; timestamps on the nowMicros() timebase.
 */
void traceEmitComplete(const char *name, uint64_t ts_us,
                       uint64_t dur_us, std::string args);

#define SPARSEAP_TELEMETRY_CAT2(a, b) a##b
#define SPARSEAP_TELEMETRY_CAT(a, b) SPARSEAP_TELEMETRY_CAT2(a, b)

/** Open a span covering the rest of the enclosing scope. */
#define SPARSEAP_SPAN(...)                                                   \
    ::sparseap::telemetry::ScopedSpan SPARSEAP_TELEMETRY_CAT(               \
        sparseap_span_, __LINE__)(__VA_ARGS__)

/** Span + `phase.<name>_us` histogram; @p name must be a literal. */
#define SPARSEAP_PHASE(name)                                                 \
    static ::sparseap::telemetry::HistogramMetric                            \
        SPARSEAP_TELEMETRY_CAT(sparseap_phase_hist_,                         \
                               __LINE__)("phase." name "_us");               \
    ::sparseap::telemetry::ScopedPhase SPARSEAP_TELEMETRY_CAT(              \
        sparseap_phase_, __LINE__)(                                          \
        SPARSEAP_TELEMETRY_CAT(sparseap_phase_hist_, __LINE__), name)

} // namespace telemetry
} // namespace sparseap

#endif // SPARSEAP_TELEMETRY_TRACE_H
