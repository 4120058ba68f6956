#include "telemetry/request_trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "telemetry/event_log.h"
#include "telemetry/trace.h"

namespace sparseap {
namespace telemetry {

namespace {

thread_local RequestTrace *g_current = nullptr;

void
appendEscaped(std::ostream &os, const std::string &v)
{
    for (char c : v) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
}

/** Chrome args of one request span: the request id, the tenant (root
 *  only) and the span's own members. */
std::string
spanArgs(uint64_t request_id, const std::string &tenant,
         const std::string &own)
{
    std::string args = "\"req\":" + std::to_string(request_id);
    if (!tenant.empty()) {
        args += ",\"tenant\":\"";
        for (char c : tenant) {
            if (c == '"' || c == '\\')
                args += '\\';
            args += c;
        }
        args += '"';
    }
    if (!own.empty())
        args += ',' + own;
    return args;
}

} // namespace

SlowRequestRing &
SlowRequestRing::instance()
{
    // Leaked on purpose, like the metrics registry: worker threads may
    // still capture during static destruction.
    static SlowRequestRing *ring = new SlowRequestRing();
    return *ring;
}

void
SlowRequestRing::capture(CapturedRequest req)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < kCapacity) {
        ring_.push_back(std::move(req));
    } else {
        ring_[head_] = std::move(req);
        head_ = (head_ + 1) % kCapacity;
    }
    ++total_;
}

std::vector<CapturedRequest>
SlowRequestRing::captured() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CapturedRequest> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

uint64_t
SlowRequestRing::totalCaptured() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

void
SlowRequestRing::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
    total_ = 0;
}

void
SlowRequestRing::writeJson(std::ostream &os) const
{
    const std::vector<CapturedRequest> reqs = captured();
    uint64_t total;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        total = total_;
    }
    os << "{\"record\":\"slow_requests\",\"captured_total\":" << total
       << ",\"requests\":[";
    for (size_t i = 0; i < reqs.size(); ++i) {
        const CapturedRequest &r = reqs[i];
        os << (i ? ",\n" : "\n") << "{\"request_id\":" << r.requestId
           << ",\"tenant\":\"";
        appendEscaped(os, r.tenant);
        os << "\",\"op\":\"";
        appendEscaped(os, r.op);
        os << "\",\"latency_us\":" << r.latencyMicros << ",\"spans\":[";
        for (size_t s = 0; s < r.spans.size(); ++s) {
            const RequestSpanRecord &span = r.spans[s];
            os << (s ? "," : "") << "{\"name\":\"" << span.name
               << "\",\"t0_us\":" << span.t0_us
               << ",\"dur_us\":" << span.dur_us
               << ",\"depth\":" << span.depth << "}";
        }
        os << "]}";
    }
    os << "\n]}\n";
}

RequestTrace::RequestTrace(uint64_t request_id, std::string tenant,
                           const char *op)
    : request_id_(request_id), tenant_(std::move(tenant)), op_(op)
{
    prev_ = g_current;
    g_current = this;
}

RequestTrace::~RequestTrace()
{
    g_current = prev_;
}

RequestTrace *
RequestTrace::current()
{
    return g_current;
}

void
RequestTrace::addSpan(const char *name, uint64_t t0_us, uint64_t dur_us)
{
    spans_.push_back({name, t0_us, dur_us, depth_, {}});
}

uint64_t
RequestTrace::finish(uint64_t t0_us, uint64_t slow_threshold_micros)
{
    if (finished_)
        return 0;
    finished_ = true;

    const uint64_t t1 = nowMicros();
    const uint64_t latency = t1 > t0_us ? t1 - t0_us : 0;

    // Root first, children in recording (completion) order after it.
    std::vector<RequestSpanRecord> tree;
    tree.reserve(spans_.size() + 1);
    tree.push_back({"serve.request", t0_us, latency, 0, {}});
    tree.insert(tree.end(), spans_.begin(), spans_.end());

    if (traceEnabled()) {
        for (const RequestSpanRecord &span : tree) {
            traceEmitComplete(
                span.name, span.t0_us, span.dur_us,
                spanArgs(request_id_,
                         span.depth == 0 ? tenant_ : std::string(),
                         span.args));
        }
    }

    if (slow_threshold_micros != 0 && latency >= slow_threshold_micros) {
        CapturedRequest cap;
        cap.requestId = request_id_;
        cap.tenant = tenant_;
        cap.op = op_;
        cap.latencyMicros = latency;
        cap.spans = std::move(tree);
        const size_t span_count = cap.spans.size();
        SlowRequestRing::instance().capture(std::move(cap));
        LogEvent(LogLevel::Warn, "serve.request.slow")
            .num("request_id", request_id_)
            .str("tenant", tenant_)
            .str("op", op_)
            .num("latency_us", latency)
            .num("spans", span_count);
    }
    return latency;
}

} // namespace telemetry
} // namespace sparseap
