/**
 * @file
 * Request-scoped tracing for the serving path: per-request span trees,
 * Chrome-trace emission, and an always-on slow-request capture ring.
 *
 * A RequestTrace is installed on the worker thread for the lifetime of
 * one request (thread_local current-trace pointer). While it is
 * installed, every SPARSEAP_SPAN / SPARSEAP_PHASE opened on that thread
 * — in the server, in MatchService, in any library code below it —
 * joins this trace's tree at the current depth instead of writing to
 * the Chrome session directly (telemetry/trace.h), with no signature
 * changes. Every span records (name, t0, dur, depth, args) into the
 * trace's private vector: no locks, no allocation beyond the vector,
 * nothing global until finish().
 *
 * finish() assembles the tree under a root `serve.request` span and
 *  - streams every span into the active Chrome trace session (when
 *    SPARSEAP_TRACE / TraceSession is live), tagged with the request
 *    id, so daemon traces show per-request swimlanes;
 *  - when the request's latency meets the slow threshold, deposits the
 *    whole tree into the process-wide SlowRequestRing (a bounded ring
 *    that is *always* on — the last N slow requests are retrievable
 *    from a live daemon without any tracing configured) and emits one
 *    `serve.request.slow` event-log line carrying the same request id.
 *
 * See docs/OBSERVABILITY.md §Request tracing; tested by
 * tests/test_observability.cc and tests/test_serve_observability.cc.
 */

#ifndef SPARSEAP_TELEMETRY_REQUEST_TRACE_H
#define SPARSEAP_TELEMETRY_REQUEST_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace sparseap {
namespace telemetry {

/** One finished span of a request tree. */
struct RequestSpanRecord
{
    const char *name = "";
    uint64_t t0_us = 0;
    uint64_t dur_us = 0;
    uint32_t depth = 0; ///< 0 = the serve.request root
    std::string args;   ///< the span's own JSON members, or empty
};

/** One slow request's captured tree. */
struct CapturedRequest
{
    uint64_t requestId = 0;
    std::string tenant;
    std::string op; ///< request type name ("Feed", "Match", ...)
    uint64_t latencyMicros = 0;
    std::vector<RequestSpanRecord> spans; ///< spans[0] is the root
};

/** Process-wide bounded ring of recent slow requests (see file
 *  comment). Always on; capacity-bounded, oldest overwritten. */
class SlowRequestRing
{
  public:
    static constexpr size_t kCapacity = 32;

    static SlowRequestRing &instance();

    void capture(CapturedRequest req);

    /** Retained captures, oldest first. */
    std::vector<CapturedRequest> captured() const;

    /** Lifetime capture count (≥ captured().size()). */
    uint64_t totalCaptured() const;

    void clear();

    /** One JSON object: {"record":"slow_requests","requests":[...]}
     *  — the dump format tools/check_trace.py --slow-dump accepts. */
    void writeJson(std::ostream &os) const;

  private:
    SlowRequestRing() = default;

    mutable std::mutex mutex_;
    std::vector<CapturedRequest> ring_;
    size_t head_ = 0;
    uint64_t total_ = 0;
};

/** The per-request span collector (see file comment). Owned by the
 *  worker executing the request; all spans come from that thread. */
class RequestTrace
{
  public:
    RequestTrace(uint64_t request_id, std::string tenant,
                 const char *op);
    ~RequestTrace(); ///< uninstalls from the thread

    RequestTrace(const RequestTrace &) = delete;
    RequestTrace &operator=(const RequestTrace &) = delete;

    /** The trace installed on this thread, or null. */
    static RequestTrace *current();

    uint64_t requestId() const { return request_id_; }
    const std::string &tenant() const { return tenant_; }

    /** Record one pre-timed child span (e.g. the admission wait,
     *  measured between enqueue and pop on different threads). */
    void addSpan(const char *name, uint64_t t0_us, uint64_t dur_us);

    /**
     * Close the tree: root span [@p t0_us, now]. Emits to the Chrome
     * session when one is active; captures into SlowRequestRing and
     * logs `serve.request.slow` when the latency reaches
     * @p slow_threshold_micros (0 = never slow).
     * @return the request latency in microseconds.
     */
    uint64_t finish(uint64_t t0_us, uint64_t slow_threshold_micros);

  private:
    friend class ScopedSpan; // records child spans into the tree

    const uint64_t request_id_;
    const std::string tenant_;
    const char *op_;
    uint32_t depth_ = 1; ///< current nesting below the root
    std::vector<RequestSpanRecord> spans_;
    RequestTrace *prev_ = nullptr;
    bool finished_ = false;
};

} // namespace telemetry
} // namespace sparseap

#endif // SPARSEAP_TELEMETRY_REQUEST_TRACE_H
