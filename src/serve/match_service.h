/**
 * @file
 * Multi-tenant streaming match service core.
 *
 * MatchService is the transport-free heart of the apserved daemon (and
 * directly usable in process): it owns a tenant→automaton registry and
 * a session table of streams keyed by (tenant, stream id), where each
 * stream is a suspendable EngineSession mid-flight through its input.
 *
 * The scaling premise mirrors the paper's context-switch concern: the
 * number of concurrent streams must not be limited by live engine
 * memory. A live EngineSession owns scratch state sized to the
 * automaton (dense word vectors, sparse lists); a *parked* stream is
 * just an EngineSession::Snapshot — a few hundred bytes of live-set
 * state. The service keeps at most `residentSessions` live sessions
 * (LRU across all tenants) and suspend()s the rest into snapshots,
 * resuming byte-identically on the next feed. Eviction accounting uses
 * Snapshot::byteSize(), so `serve.parked_bytes` is exact.
 *
 * feedMany() is the one feed path: a request carries one or more
 * (stream, chunk) entries. Feeds for one stream are serialized
 * (concurrent callers queue on the stream's busy flag); feeds for
 * different streams run concurrently — the service mutex covers only
 * table bookkeeping, never execution. Within one request over distinct
 * streams, those on the DFA table advance together through
 * EngineSession::feedFused, so a batch over N streams pays one
 * interleaved table walk instead of N dependent-load chains.
 *
 * Every operation returns reports drained from the session — a parked
 * stream never carries undelivered reports, which is what makes the
 * snapshot small and the suspend/resume cycle invisible to clients.
 *
 * See docs/SERVING.md; tested by tests/test_match_service.cc.
 */

#ifndef SPARSEAP_SERVE_MATCH_SERVICE_H
#define SPARSEAP_SERVE_MATCH_SERVICE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "sim/session.h"

namespace sparseap {
namespace serve {

/** Outcome of a table operation (mapped to protocol ErrorCode). */
enum class OpStatus {
    Ok,
    UnknownTenant,
    UnknownStream,
    StreamExists,
    TooManyStreams,
};

/** @return a human-readable name ("ok", "unknown-tenant", ...). */
const char *opStatusName(OpStatus s);

struct MatchServiceConfig
{
    /**
     * Live-EngineSession budget across all tenants; least-recently-fed
     * streams beyond it are parked to snapshots. Streams busy in a
     * feed are never parked, so the live count can transiently exceed
     * the budget under high concurrency.
     */
    size_t residentSessions = 64;
    /** Open-stream cap per tenant (admission-independent hard cap). */
    size_t maxStreamsPerTenant = 4096;
    /** Reusable idle sessions kept per tenant (allocation recycling). */
    size_t sessionPoolSize = 8;
    /**
     * Test hook: stall every feedMany() by this long before
     * executing, so slow-request capture is testable without a giant
     * input. 0 in any real configuration.
     */
    uint64_t debugFeedDelayMicros = 0;
};

/** Registry row returned by tenants(). */
struct TenantInfo
{
    std::string name;
    size_t states = 0;        ///< automaton size
    size_t activeStreams = 0; ///< open streams right now
};

/** Point-in-time service counters (all monotonically derived). */
struct ServiceStats
{
    uint64_t activeStreams = 0;
    uint64_t residentSessions = 0;
    uint64_t parkedSessions = 0;
    uint64_t parkedBytes = 0;
    uint64_t streamsOpened = 0;
    uint64_t streamsClosed = 0;
    uint64_t feeds = 0;
    uint64_t fedBytes = 0;
    uint64_t parks = 0;
    uint64_t resumes = 0;
    uint64_t fusedFeeds = 0;
};

/** Multi-tenant session table over shared automata (see file comment). */
class MatchService
{
  public:
    explicit MatchService(MatchServiceConfig config = {});
    ~MatchService();

    MatchService(const MatchService &) = delete;
    MatchService &operator=(const MatchService &) = delete;

    /**
     * Register @p name over @p fa. The automaton is shared by every
     * stream of the tenant (and typically mmap-backed by the artifact
     * store). @p session carries the per-stream engine configuration;
     * the default (auto core, all-bytes alphabet) is correct for
     * streams whose byte distribution is unknown up front.
     */
    void addTenant(const std::string &name,
                   std::shared_ptr<const FlatAutomaton> fa,
                   SessionConfig session = {});

    bool hasTenant(const std::string &name) const;

    std::vector<TenantInfo> tenants() const;

    /**
     * Create stream @p streamId for @p tenant, parked at offset 0.
     * @p owner tags the stream (the daemon passes the connection id)
     * so releaseOwner() can sweep a disconnected client's streams.
     */
    OpStatus open(const std::string &tenant, uint64_t streamId,
                  uint64_t owner = 0);

    /**
     * Feed each entry's chunk to its stream; all streams belong to
     * @p tenant. @p out gets one group per entry, in entry order: the
     * reports the entry's chunk drained (positions are global stream
     * offsets) and the stream's offset after it. Every stream is
     * checked out before any byte is fed, so an unknown stream id fails
     * the whole call with every stream unchanged. When the ids are
     * distinct, streams in the DFA phase advance together through the
     * fused interleave; every other entry — all of them when an id
     * repeats — feeds individually, in entry order. Feeds for one
     * stream serialize in caller order; feeds for different streams run
     * concurrently.
     */
    OpStatus feedMany(const std::string &tenant,
                      std::span<const FeedEntry> entries,
                      std::vector<ReportGroup> *out);

    /**
     * Destroy a stream, returning any reports not yet drained (none
     * unless the last feed's output was lost) and the final offset.
     */
    OpStatus close(const std::string &tenant, uint64_t streamId,
                   ReportGroup *out);

    /** One-shot whole-input match through a pooled session. */
    OpStatus matchOneShot(const std::string &tenant,
                          std::span<const uint8_t> input,
                          ReportGroup *out);

    /**
     * Drop every stream opened under @p owner (client disconnect).
     * Streams busy in a feed are swept as soon as the feed finishes.
     * @return streams dropped
     */
    size_t releaseOwner(uint64_t owner);

    /** Open streams across all tenants. */
    size_t openStreamCount() const;

    ServiceStats stats() const;

    const MatchServiceConfig &config() const { return config_; }

  private:
    struct Stream;
    struct Tenant;

    Tenant *findTenant(const std::string &name);
    const Tenant *findTenant(const std::string &name) const;

    /**
     * Make @p stream resident and mark it busy, resuming its snapshot
     * into a (pooled or fresh) session. Blocks while another caller
     * has it busy. Caller holds the lock; the lock is released and
     * reacquired across the wait, and across the session's restart()
     * or resume() (which may build a decided automaton's DFA or split,
     * once per automaton) with the stream already marked busy.
     */
    void checkoutLocked(std::unique_lock<std::mutex> *lock,
                        Tenant *tenant, Stream *stream);

    /** Return a busy stream to the table and enforce the budget. */
    void checkinLocked(Tenant *tenant, Stream *stream);

    /** Park LRU idle residents until the budget holds. */
    void enforceBudgetLocked();

    /** Park one stream (resident, idle): suspend + pool the session. */
    void parkLocked(Tenant *tenant, Stream *stream);

    void destroyStreamLocked(Tenant *tenant, uint64_t stream_id,
                             Stream *stream);

    std::unique_ptr<EngineSession> takeSessionLocked(Tenant *tenant);
    void recycleSessionLocked(Tenant *tenant,
                              std::unique_ptr<EngineSession> session);

    void publishGaugesLocked();

    MatchServiceConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable busy_cv_;
    /** Ordered map: tenants() and stats listings are deterministic. */
    std::map<std::string, std::unique_ptr<Tenant>> tenants_;
    uint64_t lru_clock_ = 0;
    size_t resident_count_ = 0;
    uint64_t parked_bytes_ = 0;

    ServiceStats stats_;
};

} // namespace serve
} // namespace sparseap

#endif // SPARSEAP_SERVE_MATCH_SERVICE_H
