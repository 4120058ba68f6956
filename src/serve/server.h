/**
 * @file
 * apserved's daemon core: the framing protocol over a Unix-domain
 * socket, bridged onto a MatchService.
 *
 * One I/O thread polls the listening socket and every connection,
 * assembling frames with FrameReader. Cheap requests (Hello, Ping,
 * Stats) are answered inline; stateful ones (Open, Feed, Close, Match)
 * flow through the AdmissionQueue to a worker pool. Two invariants
 * shape the dispatch:
 *
 *  - *Per-connection FIFO.* At most one admitted request per connection
 *    is in flight at a time; the rest wait in the connection's backlog.
 *    Since a client feeds its own streams over its own connection, this
 *    serializes each stream's feeds in arrival order without any
 *    per-stream queue — and an Open queued behind a Feed can never
 *    overtake it.
 *
 *  - *Reject early, shed late.* The I/O thread answers Overload (queue
 *    full) and Retry (tenant cap) straight from tryEnqueue without
 *    waking a worker; workers shed admitted items whose queue wait
 *    exceeded the deadline. Both are explicit responses — an overloaded
 *    server degrades loudly, it never silently hangs a request.
 *
 * Disconnects sweep the client's streams via MatchService::releaseOwner
 * (mid-feed streams die at checkin), so an interrupted client never
 * leaks sessions. Responses are written by whichever thread produced
 * them under a per-connection write lock; large report sets are split
 * into Reports frames chained with kFlagMore.
 *
 * See docs/SERVING.md; tested by tests/test_serve_server.cc.
 */

#ifndef SPARSEAP_SERVE_SERVER_H
#define SPARSEAP_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/admission.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "telemetry/window.h"

namespace sparseap {
namespace serve {

/** Serving-plane observability knobs (see docs/OBSERVABILITY.md). */
struct ObservabilityConfig
{
    /** Observer thread sample period (windows + watchdog + metrics
     *  file). 0 disables the observer thread. */
    uint64_t samplePeriodMillis = 1000;
    /** Requests at or above this latency are captured into the
     *  SlowRequestRing and logged. 0 disables slow capture. */
    uint64_t slowRequestMicros = 250000;
    /** Watchdog: a worker busy on one request this long is stuck; a
     *  non-empty queue unpopped this long is stalled. */
    uint64_t stuckMicros = 10ull * 1000 * 1000;
    /** Prometheus text exposition rewritten every sample ("" = off). */
    std::string metricsPath;
};

struct ServerConfig
{
    /** Filesystem path of the Unix-domain listening socket. */
    std::string socketPath;
    /** Worker threads executing admitted requests. */
    unsigned workers = 4;
    AdmissionConfig admission;
    /** Accepted-connection bound; excess accepts are closed at once. */
    size_t maxConnections = 256;
    /** Per-send budget before a stuck client is disconnected. */
    int sendTimeoutMillis = 5000;
    ObservabilityConfig observability;
};

/** Traffic counters (admission stats live on the queue; request
 *  latency is the process-wide serve.request_micros histogram). */
struct ServerStats
{
    uint64_t accepted = 0;
    uint64_t disconnected = 0;
    uint64_t frames = 0;    ///< well-formed request frames
    uint64_t badFrames = 0; ///< Error-answered frames + corrupt streams
};

/** The daemon core (see file comment). */
class Server
{
  public:
    Server(MatchService *service, ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket and start the I/O and worker threads.
     * @return false with @p error set on bind/listen failure.
     */
    bool start(std::string *error);

    /** Stop threads, close every connection, sweep their streams. */
    void stop();

    bool running() const { return running_.load(); }

    const AdmissionQueue &admission() const { return queue_; }

    /** Rows for the in-protocol Stats reply: the serve.* totals,
     *  per-tenant series and windowed rows. */
    StatsReply statsReply() const;

    /** Take one observer sample now (window push + watchdog tick +
     *  metrics-file rewrite). The observer thread calls this every
     *  period; tests call it to advance windows deterministically. */
    void sampleNow();

  private:
    struct Conn;
    struct Work;

    void ioLoop();
    void workerLoop(size_t worker_index);
    void observerLoop();
    void watchdogTick(uint64_t now_us);

    void acceptOne();
    /** Drain readable bytes; parse and dispatch complete frames. */
    void readConn(const std::shared_ptr<Conn> &conn);
    void dispatchFrame(const std::shared_ptr<Conn> &conn, Frame frame);
    /** Move backlog work into the admission queue (FIFO, one at a time). */
    void pumpConn(const std::shared_ptr<Conn> &conn);
    void execute(const std::shared_ptr<Work> &work);
    /** The decode + dispatch + respond body (called by execute()). */
    void executeRequest(const std::shared_ptr<Work> &work);
    void closeConn(const std::shared_ptr<Conn> &conn);

    bool sendAll(const std::shared_ptr<Conn> &conn,
                 std::span<const uint8_t> bytes);
    void sendSimple(const std::shared_ptr<Conn> &conn, MsgType type,
                    uint64_t request_id);
    void sendError(const std::shared_ptr<Conn> &conn, uint64_t request_id,
                   ErrorCode code, const std::string &message);
    void sendReports(const std::shared_ptr<Conn> &conn,
                     uint64_t request_id,
                     std::span<const ReportGroup> groups);
    void sendStats(const std::shared_ptr<Conn> &conn, uint64_t request_id);

    MatchService *service_;
    ServerConfig config_;
    AdmissionQueue queue_;

    std::atomic<bool> running_{false};
    int listen_fd_ = -1;
    int wake_fds_[2] = {-1, -1}; ///< self-pipe: stop() wakes poll()

    std::thread io_thread_;
    std::vector<std::thread> workers_;

    /** I/O-thread-owned; workers reach conns via shared_ptr in Work. */
    std::unordered_map<int, std::shared_ptr<Conn>> conns_;
    uint64_t next_conn_id_ = 1;

    mutable std::mutex stats_mutex_;
    ServerStats stats_;

    // --- observability

    /** Server-side request serial, minted at admission. */
    std::atomic<uint64_t> next_request_serial_{0};

    telemetry::WindowRing windows_;

    std::thread observer_;
    std::mutex observer_mutex_;
    std::condition_variable observer_cv_;
    bool observer_stop_ = false;

    /** Per-worker busy-since timestamp (0 = idle); watchdog input. */
    std::unique_ptr<std::atomic<uint64_t>[]> worker_busy_since_;
    size_t worker_count_ = 0;
    /** Timestamp of the last successful queue pop (stall detection). */
    std::atomic<uint64_t> last_pop_micros_{0};

    /** Observer-thread-private edge detection state. */
    std::vector<bool> worker_stuck_;
    bool queue_stalled_ = false;
};

} // namespace serve
} // namespace sparseap

#endif // SPARSEAP_SERVE_SERVER_H
