/**
 * @file
 * Helpers shared by the apbench load generator and pipeline pass:
 * clocks, report digests, /proc memory readings, a minimal JSON writer
 * and the in-memory span log the traced runs write as Chrome trace
 * events.
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the layers' public functions; nothing inside the library is
 * instrumented for the benchmark.
 */

#ifndef APBENCH_COMMON_H
#define APBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/report.h"

namespace apbench {

using Clock = std::chrono::steady_clock;

/** Microseconds from @p a to @p b. */
inline double
micros(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** splitmix64 finalizer. */
inline uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Order-independent digest of a multiset of reports: the sum of a mixed
 * hash of each (position, state), folded with the count. Streams that
 * hold the same reports in any order, or split into any chunks, digest
 * equally, and it costs one pass with no sort (SpAP runs emit tens of
 * millions of reports).
 */
class ReportDigest
{
  public:
    void
    add(std::span<const sparseap::Report> reports)
    {
        for (const sparseap::Report &r : reports)
            sum_ += mix64(mix64(r.position) ^ r.state);
        count_ += reports.size();
    }

    uint64_t count() const { return count_; }
    uint64_t value() const { return mix64(sum_ ^ mix64(count_)); }

  private:
    uint64_t sum_ = 0;
    uint64_t count_ = 0;
};

inline uint64_t
reportDigest(std::span<const sparseap::Report> reports)
{
    ReportDigest d;
    d.add(reports);
    return d.value();
}

/** Hex text of a digest (JSON numbers lose 64-bit precision). */
inline std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Peak resident set (VmHWM) of process @p pid in KiB; 0 if unreadable. */
inline uint64_t
vmHwmKiB(const std::string &pid = "self")
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return 0;
}

/**
 * One Chrome trace "complete" event. `request` ties replay spans to the
 * socket request they re-execute; 0 when the span belongs to no request.
 */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint32_t tid = 0;
    double startUs = 0.0;
    double durUs = 0.0;
};

/**
 * Per-thread span buffer. Ids come from one process-wide counter, so
 * buffers of different threads merge without collisions. A disabled
 * log records nothing and hands out id 0.
 */
class SpanLog
{
  public:
    SpanLog(bool enabled, uint32_t tid) : enabled_(enabled), tid_(tid) {}

    bool enabled() const { return enabled_; }

    /** Reserve an id for a span whose children start before it ends. */
    uint64_t
    newId()
    {
        return enabled_ ? nextId().fetch_add(1) + 1 : 0;
    }

    void
    record(const char *name, uint64_t id, uint64_t parent,
           uint64_t request, Clock::time_point start,
           Clock::time_point end)
    {
        if (!enabled_)
            return;
        spans_.push_back({name, id, parent, request, tid_,
                          micros(epoch(), start), micros(start, end)});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Process-wide time origin of trace timestamps. */
    static Clock::time_point
    epoch()
    {
        static const Clock::time_point t = Clock::now();
        return t;
    }

  private:
    static std::atomic<uint64_t> &
    nextId()
    {
        static std::atomic<uint64_t> id{0};
        return id;
    }

    bool enabled_;
    uint32_t tid_;
    std::vector<Span> spans_;
};

/** Times one call into a layer and records it as a span on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t parent = 0,
               uint64_t request = 0)
        : log_(log), name_(name), parent_(parent), request_(request),
          id_(log.newId()), start_(Clock::now())
    {
    }

    ~ScopedSpan()
    {
        log_.record(name_, id_, parent_, request_, start_, Clock::now());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    const char *name_;
    uint64_t parent_;
    uint64_t request_;
    uint64_t id_;
    Clock::time_point start_;
};

/** Write every span of @p logs to @p path as Chrome trace-event JSON. */
inline bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs)
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[320];
    for (const SpanLog *log : logs) {
        for (const Span &s : log->spans()) {
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                "\"parent\":%llu,\"request\":%llu}}",
                first ? "" : ",", s.name, s.tid, s.startUs, s.durUs,
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.request));
            out << buf;
            first = false;
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

/**
 * Minimal streaming JSON writer: enough for the flat records run.py
 * reads. Keys and string values are plain ASCII identifiers here, so no
 * escaping is needed beyond what the callers guarantee.
 */
class Json
{
  public:
    Json &
    open(const char *key = nullptr)
    {
        sep(key);
        os_ << '{';
        first_ = true;
        return *this;
    }

    Json &
    close()
    {
        os_ << '}';
        first_ = false;
        return *this;
    }

    Json &
    openArray(const char *key)
    {
        sep(key);
        os_ << '[';
        first_ = true;
        return *this;
    }

    Json &
    closeArray()
    {
        os_ << ']';
        first_ = false;
        return *this;
    }

    Json &
    num(const char *key, double v)
    {
        sep(key);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os_ << buf;
        return *this;
    }

    Json &
    num(const char *key, uint64_t v)
    {
        sep(key);
        os_ << v;
        return *this;
    }

    Json &
    str(const char *key, const std::string &v)
    {
        sep(key);
        os_ << '"' << v << '"';
        return *this;
    }

    /** An array of numbers (raw latency samples and the like). */
    Json &
    nums(const char *key, const std::vector<double> &v)
    {
        openArray(key);
        char buf[32];
        for (size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.10g", i ? "," : "", v[i]);
            os_ << buf;
        }
        return closeArray();
    }

    std::string text() const { return os_.str(); }

  private:
    void
    sep(const char *key)
    {
        if (!first_)
            os_ << ',';
        first_ = false;
        if (key)
            os_ << '"' << key << "\":";
    }

    std::ostringstream os_;
    bool first_ = true;
};

/** Write @p text to @p path; @return false on I/O failure. */
inline bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text << '\n';
    return static_cast<bool>(out);
}

} // namespace apbench

#endif // APBENCH_COMMON_H
