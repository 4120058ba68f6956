#include "telemetry/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/request_trace.h"

namespace sparseap {
namespace telemetry {

namespace {

using Clock = std::chrono::steady_clock;

/** One finished span, ready for serialization. */
struct TraceEvent
{
    const char *name;
    uint64_t ts_us;
    uint64_t dur_us;
    uint32_t tid;
    std::string args;
};

/** Sequential id per thread (stable across sessions). */
uint32_t
threadTid()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

/** Active session: a guarded event buffer and its output path. Spans
 *  are batch/phase grained, so one mutex sees negligible contention. */
struct Session
{
    std::string path;
    std::mutex mutex;
    std::vector<TraceEvent> events;
    bool flushed = false;

    void
    append(TraceEvent &&e)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!flushed)
            events.push_back(std::move(e));
    }

    void
    flush()
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (flushed)
            return;
        flushed = true;
        std::ofstream out(path);
        if (!out) {
            warn("SPARSEAP_TRACE: cannot open '", path, "' for write");
            return;
        }
        // Chrome's JSON importer doesn't require any ordering, but a
        // per-tid monotonic stream is easier for humans and checkable
        // by CI: sort by (tid, ts, outer-span-first).
        std::sort(events.begin(), events.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      if (a.tid != b.tid)
                          return a.tid < b.tid;
                      if (a.ts_us != b.ts_us)
                          return a.ts_us < b.ts_us;
                      return a.dur_us > b.dur_us;
                  });
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (size_t i = 0; i < events.size(); ++i) {
            const TraceEvent &e = events[i];
            out << (i ? ",\n" : "\n")
                << "{\"name\":\"" << e.name
                << "\",\"cat\":\"sparseap\",\"ph\":\"X\",\"pid\":1,"
                << "\"tid\":" << e.tid << ",\"ts\":" << e.ts_us
                << ",\"dur\":" << e.dur_us;
            if (!e.args.empty())
                out << ",\"args\":{" << e.args << "}";
            out << "}";
        }
        out << "\n]}\n";
    }
};

std::atomic<bool> g_enabled{false};
std::mutex g_session_mutex;
std::shared_ptr<Session> g_session; // NOLINT: guarded above

void
beginSession(std::string path)
{
    std::lock_guard<std::mutex> lock(g_session_mutex);
    auto s = std::make_shared<Session>();
    s->path = std::move(path);
    g_session = std::move(s);
    g_enabled.store(true, std::memory_order_release);
}

std::shared_ptr<Session>
endSession()
{
    std::lock_guard<std::mutex> lock(g_session_mutex);
    g_enabled.store(false, std::memory_order_release);
    return std::exchange(g_session, nullptr);
}

std::shared_ptr<Session>
currentSession()
{
    std::lock_guard<std::mutex> lock(g_session_mutex);
    return g_session;
}

void
flushEnvSession()
{
    if (auto s = endSession())
        s->flush();
}

/** Lazily start the SPARSEAP_TRACE-driven session, once. */
void
initFromEnvironment()
{
    const char *path = std::getenv("SPARSEAP_TRACE");
    if (!path || !*path)
        return;
    beginSession(path);
    std::atexit(flushEnvSession);
}

std::once_flag g_env_once;

} // namespace

bool
traceEnabled()
{
    std::call_once(g_env_once, initFromEnvironment);
    return g_enabled.load(std::memory_order_acquire);
}

uint64_t
nowMicros()
{
    static const Clock::time_point t0 = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
}

void
traceEmitComplete(const char *name, uint64_t ts_us, uint64_t dur_us,
                  std::string args)
{
    if (!traceEnabled())
        return;
    if (auto s = currentSession())
        s->append({name, ts_us, dur_us, threadTid(), std::move(args)});
}

TraceSession::TraceSession(std::string path)
{
    beginSession(std::move(path));
}

void
TraceSession::finish()
{
    if (!active_)
        return;
    active_ = false;
    if (auto s = endSession())
        s->flush();
}

TraceSession::~TraceSession()
{
    finish();
}

bool
ScopedSpan::begin(const char *name)
{
    request_ = RequestTrace::current();
    if (request_ != nullptr && request_->finished_)
        request_ = nullptr;
    if (request_ == nullptr && !traceEnabled())
        return false;
    name_ = name;
    t0_us_ = nowMicros();
    if (request_ != nullptr)
        depth_ = request_->depth_++;
    return true;
}

void
ScopedSpan::end()
{
    const uint64_t dur = nowMicros() - t0_us_;
    if (request_ != nullptr) {
        --request_->depth_;
        request_->spans_.push_back(
            {name_, t0_us_, dur, depth_, std::move(args_)});
    } else if (auto s = currentSession()) {
        s->append({name_, t0_us_, dur, threadTid(), std::move(args_)});
    }
    name_ = nullptr;
}

void
ScopedSpan::arg(const char *key, uint64_t value)
{
    if (!name_)
        return;
    if (!args_.empty())
        args_ += ',';
    args_ += '"';
    args_ += key;
    args_ += "\":";
    args_ += std::to_string(value);
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (!name_)
        return;
    if (!args_.empty())
        args_ += ',';
    args_ += '"';
    args_ += key;
    args_ += "\":\"";
    for (char c : value) {
        if (c == '"' || c == '\\')
            args_ += '\\';
        args_ += c;
    }
    args_ += '"';
}

ScopedPhase::ScopedPhase(HistogramMetric &hist, const char *span_name)
    : hist_(hist), t0_us_(nowMicros()), span_(span_name)
{
}

ScopedPhase::~ScopedPhase()
{
    hist_.add(nowMicros() - t0_us_);
}

} // namespace telemetry
} // namespace sparseap
