#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>

#include "common/logging.h"
#include "telemetry/event_log.h"
#include "telemetry/exposition.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/request_trace.h"
#include "telemetry/trace.h"

namespace sparseap {
namespace serve {

namespace {

/** The trace timebase (telemetry::nowMicros), so request spans, log
 *  lines and latency math all share one clock. */
uint64_t
nowMicros()
{
    return telemetry::nowMicros();
}

telemetry::HistogramMetric &
latencyMetric()
{
    static telemetry::HistogramMetric h("serve.request_micros");
    return h;
}

// Per-tenant series on the serve.* family (bounded cardinality; see
// telemetry/labels.h). Leaked function-local singletons, same idiom as
// the registry cells they intern.
telemetry::LabeledCounter &
requestsByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.requests");
    return c;
}

telemetry::LabeledCounter &
shedsByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.sheds");
    return c;
}

telemetry::LabeledHistogram &
requestMicrosByTenant()
{
    static auto &h =
        *new telemetry::LabeledHistogram("serve.request_micros");
    return h;
}

telemetry::Counter &
watchdogTicks()
{
    static telemetry::Counter c("serve.watchdog.ticks");
    return c;
}

telemetry::Gauge &
watchdogStuckWorkers()
{
    static telemetry::Gauge g("serve.watchdog.stuck_workers");
    return g;
}

telemetry::Counter &
watchdogQueueStalls()
{
    static telemetry::Counter c("serve.watchdog.queue_stalls");
    return c;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Every request payload leads with the tenant string. */
std::string
peekTenant(std::span<const uint8_t> payload)
{
    WireReader r(payload);
    std::string tenant = r.str();
    return r.ok() ? tenant : std::string();
}

ErrorCode
toErrorCode(OpStatus s)
{
    switch (s) {
    case OpStatus::UnknownTenant:
        return ErrorCode::UnknownTenant;
    case OpStatus::UnknownStream:
        return ErrorCode::UnknownStream;
    case OpStatus::StreamExists:
        return ErrorCode::StreamExists;
    case OpStatus::TooManyStreams:
        return ErrorCode::TooManyStreams;
    case OpStatus::Ok:
        break;
    }
    return ErrorCode::Internal;
}

} // namespace

/** One accepted connection. Owned by the I/O thread's map; workers
 *  hold it via shared_ptr, so the fd closes with the last reference. */
struct Server::Conn
{
    int fd = -1;
    uint64_t id = 0;
    FrameReader reader;

    /** Guards backlog / inflight (I/O thread and workers both touch). */
    std::mutex mu;
    std::deque<Frame> backlog;
    bool inflight = false; ///< one admitted request is being executed
    bool dead = false;

    /** Serializes response writes (inline and worker paths). */
    std::mutex writeMu;

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** One admitted request riding the admission queue. */
struct Server::Work
{
    std::shared_ptr<Conn> conn;
    Frame frame;
    std::string tenant;
    uint64_t startMicros = 0; ///< frame receipt (latency origin)
    uint64_t serial = 0;      ///< server-side request id (tracing/logs)
};

Server::Server(MatchService *service, ServerConfig config)
    : service_(service), config_(std::move(config)),
      queue_(config_.admission)
{
}

Server::~Server() { stop(); }

bool
Server::start(std::string *error)
{
    SPARSEAP_ASSERT(!running_.load(), "server already started");

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + config_.socketPath;
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.socketPath.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0 || !setNonBlocking(listen_fd_)) {
        if (error)
            *error = std::string("bind/listen ") + config_.socketPath +
                     ": " + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    running_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });
    const unsigned n = config_.workers == 0 ? 1 : config_.workers;
    worker_count_ = n;
    worker_busy_since_.reset(new std::atomic<uint64_t>[n]);
    for (unsigned i = 0; i < n; ++i)
        worker_busy_since_[i].store(0, std::memory_order_relaxed);
    worker_stuck_.assign(n, false);
    queue_stalled_ = false;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    if (config_.observability.samplePeriodMillis > 0) {
        observer_stop_ = false;
        observer_ = std::thread([this] { observerLoop(); });
    }
    inform("apserved listening on ", config_.socketPath, " (", n,
           " workers)");
    telemetry::LogEvent(telemetry::LogLevel::Info, "serve.start")
        .str("socket", config_.socketPath)
        .num("workers", n);
    return true;
}

void
Server::stop()
{
    if (!running_.exchange(false)) {
        if (io_thread_.joinable())
            io_thread_.join();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(observer_mutex_);
        observer_stop_ = true;
    }
    observer_cv_.notify_all();
    if (observer_.joinable())
        observer_.join();
    // Wake the poll loop; it drains, sweeps every connection's streams,
    // and exits. Then release the workers.
    const uint8_t one = 1;
    (void)!::write(wake_fds_[1], &one, 1);
    if (io_thread_.joinable())
        io_thread_.join();
    queue_.close();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    telemetry::LogEvent(telemetry::LogLevel::Info, "serve.stop")
        .str("socket", config_.socketPath);

    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    ::unlink(config_.socketPath.c_str());
    for (int &fd : wake_fds_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

void
Server::ioLoop()
{
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    while (running_.load()) {
        fds.clear();
        polled.clear();
        fds.push_back({wake_fds_[0], POLLIN, 0});
        fds.push_back({listen_fd_, POLLIN, 0});
        for (const auto &[fd, conn] : conns_) {
            fds.push_back({fd, POLLIN, 0});
            polled.push_back(conn);
        }

        const int rc = ::poll(fds.data(), fds.size(), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            // Error level: falls back to the human log when no
            // structured sink is configured, so this is never silent.
            telemetry::LogEvent(telemetry::LogLevel::Error,
                                "serve.poll_error")
                .str("error", std::strerror(errno));
            break;
        }
        if (fds[0].revents != 0) {
            uint8_t buf[64];
            while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
            }
        }
        if (!running_.load())
            break;
        if (fds[1].revents != 0)
            acceptOne();
        for (size_t i = 2; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            readConn(polled[i - 2]);
        }
    }

    // Shutdown: sweep every connection's streams so nothing leaks.
    for (auto &[fd, conn] : conns_) {
        {
            std::lock_guard<std::mutex> lock(conn->mu);
            conn->dead = true;
            conn->backlog.clear();
        }
        service_->releaseOwner(conn->id);
    }
    conns_.clear();
}

void
Server::acceptOne()
{
    for (;;) {
        const int fd =
            ::accept4(listen_fd_, nullptr, nullptr,
                      SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0)
            return; // EAGAIN or transient error; poll retries
        if (conns_.size() >= config_.maxConnections) {
            ::close(fd);
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->id = next_conn_id_++;
        telemetry::LogEvent(telemetry::LogLevel::Debug,
                            "serve.conn_open")
            .num("conn", conn->id);
        conns_.emplace(fd, std::move(conn));
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.accepted;
    }
}

void
Server::readConn(const std::shared_ptr<Conn> &conn)
{
    uint8_t buf[65536];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn->reader.append({buf, static_cast<size_t>(n)});
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        closeConn(conn); // orderly close or hard error
        return;
    }

    for (;;) {
        Frame frame;
        std::string error;
        const FrameReader::Status st =
            conn->reader.next(&frame, &error);
        if (st == FrameReader::Status::NeedMore)
            break;
        if (st == FrameReader::Status::Corrupt) {
            // The byte stream is unrecoverable; drop the client.
            // Info level: hostile clients are routine, not incidents.
            telemetry::LogEvent(telemetry::LogLevel::Info,
                                "serve.conn_corrupt")
                .num("conn", conn->id)
                .str("error", error);
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.badFrames;
            }
            closeConn(conn);
            return;
        }
        dispatchFrame(conn, std::move(frame));
    }
}

void
Server::dispatchFrame(const std::shared_ptr<Conn> &conn, Frame frame)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.frames;
    }
    if (frame.version != kProtocolVersion) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.badFrames;
        }
        sendError(conn, frame.requestId, ErrorCode::BadVersion,
                  "protocol version mismatch");
        return;
    }
    if (!isRequestType(frame.type)) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.badFrames;
        }
        sendError(conn, frame.requestId, ErrorCode::UnknownType,
                  std::string("unknown request type ") +
                      msgTypeName(frame.type));
        return;
    }

    switch (static_cast<MsgType>(frame.type)) {
    case MsgType::Hello:
    case MsgType::Ping:
        sendSimple(conn, MsgType::Ok, frame.requestId);
        return;
    case MsgType::Stats:
        sendStats(conn, frame.requestId);
        return;
    default:
        break; // stateful: through admission + workers
    }

    const uint64_t request_id = frame.requestId;
    bool backlogged = false;
    {
        std::lock_guard<std::mutex> lock(conn->mu);
        // A pipelining client outrunning its own backlog is overload
        // local to this connection; answer like queue pressure.
        if (conn->backlog.size() < config_.admission.queueDepth) {
            conn->backlog.push_back(std::move(frame));
            backlogged = true;
        }
    }
    if (!backlogged) {
        sendSimple(conn, MsgType::Overload, request_id);
        return;
    }
    pumpConn(conn);
}

void
Server::pumpConn(const std::shared_ptr<Conn> &conn)
{
    for (;;) {
        Frame frame;
        {
            std::lock_guard<std::mutex> lock(conn->mu);
            if (conn->inflight || conn->dead || conn->backlog.empty())
                return;
            frame = std::move(conn->backlog.front());
            conn->backlog.pop_front();
            conn->inflight = true;
        }

        auto work = std::make_shared<Work>();
        work->conn = conn;
        work->tenant = peekTenant(frame.payload);
        work->startMicros = nowMicros();
        work->serial =
            next_request_serial_.fetch_add(1, std::memory_order_relaxed) +
            1;
        const uint64_t request_id = frame.requestId;
        work->frame = std::move(frame);

        if (!work->tenant.empty())
            requestsByTenant().add(work->tenant, 1);

        const AdmitResult admit =
            queue_.tryEnqueue(work->tenant, work);
        if (admit == AdmitResult::Admitted)
            return; // the executing worker un-sets inflight + re-pumps

        if (!work->tenant.empty())
            shedsByTenant().add(work->tenant, 1);
        telemetry::LogEvent(telemetry::LogLevel::Debug, "serve.reject")
            .num("request_id", work->serial)
            .str("tenant", work->tenant)
            .str("kind", admit == AdmitResult::TenantBusy ? "retry"
                                                          : "overload");
        {
            std::lock_guard<std::mutex> lock(conn->mu);
            conn->inflight = false;
        }
        sendSimple(conn,
                   admit == AdmitResult::TenantBusy ? MsgType::Retry
                                                    : MsgType::Overload,
                   request_id);
        // Fall through: the next backlog frame may still be admissible.
    }
}

void
Server::workerLoop(size_t worker_index)
{
    AdmissionQueue::Item item;
    std::vector<AdmissionQueue::Item> shed;
    while (queue_.pop(&item, &shed)) {
        const uint64_t pop_us = nowMicros();
        last_pop_micros_.store(pop_us, std::memory_order_relaxed);
        for (AdmissionQueue::Item &s : shed) {
            auto work = std::static_pointer_cast<Work>(s.work);
            if (!work->tenant.empty())
                shedsByTenant().add(work->tenant, 1);
            telemetry::LogEvent(telemetry::LogLevel::Debug,
                                "serve.shed")
                .num("request_id", work->serial)
                .str("tenant", work->tenant)
                .num("waited_us", pop_us - work->startMicros);
            {
                std::lock_guard<std::mutex> lock(work->conn->mu);
                work->conn->inflight = false;
            }
            sendSimple(work->conn, MsgType::Overload,
                       work->frame.requestId);
            pumpConn(work->conn);
        }
        shed.clear();
        worker_busy_since_[worker_index].store(
            pop_us == 0 ? 1 : pop_us, std::memory_order_relaxed);
        execute(std::static_pointer_cast<Work>(item.work));
        worker_busy_since_[worker_index].store(
            0, std::memory_order_relaxed);
    }
    // Closed: answer whatever was shed during the drain.
    for (AdmissionQueue::Item &s : shed) {
        auto work = std::static_pointer_cast<Work>(s.work);
        sendSimple(work->conn, MsgType::Overload, work->frame.requestId);
    }
}

void
Server::execute(const std::shared_ptr<Work> &work)
{
    const std::shared_ptr<Conn> &conn = work->conn;
    const uint64_t pop_us = nowMicros();
    telemetry::RequestTrace trace(work->serial, work->tenant,
                                  msgTypeName(work->frame.type));
    trace.addSpan("serve.admission", work->startMicros,
                  pop_us - work->startMicros);
    {
        SPARSEAP_SPAN("serve.execute");
        executeRequest(work);
    }
    queue_.finish(work->tenant);
    const uint64_t micros = trace.finish(
        work->startMicros, config_.observability.slowRequestMicros);
    if (!work->tenant.empty())
        requestMicrosByTenant().add(work->tenant, micros);
    latencyMetric().add(micros);
    {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->inflight = false;
    }
    pumpConn(conn);
}

void
Server::executeRequest(const std::shared_ptr<Work> &work)
{
    const std::shared_ptr<Conn> &conn = work->conn;
    const Frame &frame = work->frame;
    const uint64_t request_id = frame.requestId;
    WireReader reader(frame.payload);
    bool decoded = true;

    switch (static_cast<MsgType>(frame.type)) {
    case MsgType::Open: {
        StreamRequest req;
        decoded = decodeStreamRequest(&reader, &req);
        if (decoded) {
            const OpStatus st =
                service_->open(req.tenant, req.streamId, conn->id);
            if (st == OpStatus::Ok)
                sendSimple(conn, MsgType::Ok, request_id);
            else
                sendError(conn, request_id, toErrorCode(st),
                          opStatusName(st));
        }
        break;
    }
    case MsgType::Close: {
        StreamRequest req;
        decoded = decodeStreamRequest(&reader, &req);
        if (decoded) {
            ReportGroup group;
            const OpStatus st =
                service_->close(req.tenant, req.streamId, &group);
            if (st == OpStatus::Ok)
                sendReports(conn, request_id, {&group, 1});
            else
                sendError(conn, request_id, toErrorCode(st),
                          opStatusName(st));
        }
        break;
    }
    case MsgType::Feed: {
        FeedRequest req;
        decoded = decodeFeedRequest(&reader, &req);
        if (decoded) {
            std::vector<ReportGroup> groups;
            const OpStatus st =
                service_->feedMany(req.tenant, req.entries, &groups);
            if (st == OpStatus::Ok)
                sendReports(conn, request_id, groups);
            else
                sendError(conn, request_id, toErrorCode(st),
                          opStatusName(st));
        }
        break;
    }
    case MsgType::Match: {
        MatchRequest req;
        decoded = decodeMatchRequest(&reader, &req);
        if (decoded) {
            ReportGroup group;
            const OpStatus st =
                service_->matchOneShot(req.tenant, req.input, &group);
            if (st == OpStatus::Ok)
                sendReports(conn, request_id, {&group, 1});
            else
                sendError(conn, request_id, toErrorCode(st),
                          opStatusName(st));
        }
        break;
    }
    default:
        decoded = false;
        break;
    }

    if (!decoded) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.badFrames;
        }
        sendError(conn, request_id, ErrorCode::BadFrame,
                  std::string("undecodable ") +
                      msgTypeName(frame.type) + " payload");
    }
}

void
Server::closeConn(const std::shared_ptr<Conn> &conn)
{
    {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->dead)
            return;
        conn->dead = true;
        conn->backlog.clear();
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    conns_.erase(conn->fd);
    // Sweep the client's streams; a stream busy in a worker's feed is
    // destroyed at checkin (MatchService doom semantics), so the
    // session table converges to empty even on mid-feed disconnect.
    service_->releaseOwner(conn->id);
    telemetry::LogEvent(telemetry::LogLevel::Debug, "serve.conn_close")
        .num("conn", conn->id);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.disconnected;
}

bool
Server::sendAll(const std::shared_ptr<Conn> &conn,
                std::span<const uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(conn->writeMu);
    size_t off = 0;
    const uint64_t deadline =
        nowMicros() +
        static_cast<uint64_t>(config_.sendTimeoutMillis) * 1000;
    while (off < bytes.size()) {
        const ssize_t n = ::send(conn->fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            const uint64_t now = nowMicros();
            if (now >= deadline)
                break; // stuck client
            pollfd pfd{conn->fd, POLLOUT, 0};
            ::poll(&pfd, 1,
                   static_cast<int>((deadline - now) / 1000) + 1);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break; // hard error (EPIPE after disconnect, ...)
    }
    if (off == bytes.size())
        return true;
    // Give up on this client; the poll loop reaps the fd as HUP.
    ::shutdown(conn->fd, SHUT_RDWR);
    return false;
}

void
Server::sendSimple(const std::shared_ptr<Conn> &conn, MsgType type,
                   uint64_t request_id)
{
    std::vector<uint8_t> out;
    appendFrame(&out, type, 0, request_id, {});
    sendAll(conn, out);
}

void
Server::sendError(const std::shared_ptr<Conn> &conn, uint64_t request_id,
                  ErrorCode code, const std::string &message)
{
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    encodeError(&w, ErrorReply{code, message});
    std::vector<uint8_t> out;
    appendFrame(&out, MsgType::Error, 0, request_id, payload);
    sendAll(conn, out);
}

void
Server::sendReports(const std::shared_ptr<Conn> &conn,
                    uint64_t request_id,
                    std::span<const ReportGroup> groups)
{
    // Split the reply so no frame carries more than kMaxReportsPerFrame
    // report records; all but the last frame carry kFlagMore. Oversized
    // single groups are split into slices sharing the stream id.
    std::vector<std::vector<ReportGroup>> batches(1);
    size_t in_batch = 0;
    for (const ReportGroup &g : groups) {
        size_t off = 0;
        do {
            const size_t room = kMaxReportsPerFrame - in_batch;
            const size_t take =
                std::min(room, g.reports.size() - off);
            if (take == 0 && !g.reports.empty()) {
                batches.emplace_back();
                in_batch = 0;
                continue;
            }
            ReportGroup slice;
            slice.streamId = g.streamId;
            slice.streamOffset = g.streamOffset;
            slice.reports.assign(g.reports.begin() +
                                     static_cast<ptrdiff_t>(off),
                                 g.reports.begin() +
                                     static_cast<ptrdiff_t>(off + take));
            batches.back().push_back(std::move(slice));
            in_batch += take;
            off += take;
        } while (off < g.reports.size());
    }

    std::vector<uint8_t> out;
    for (size_t b = 0; b < batches.size(); ++b) {
        std::vector<uint8_t> payload;
        WireWriter w(&payload);
        encodeReportGroups(&w, batches[b]);
        out.clear();
        const uint16_t flags =
            b + 1 < batches.size() ? kFlagMore : uint16_t{0};
        appendFrame(&out, MsgType::Reports, flags, request_id, payload);
        if (!sendAll(conn, out))
            return;
    }
}

void
Server::sendStats(const std::shared_ptr<Conn> &conn, uint64_t request_id)
{
    const StatsReply reply = statsReply();
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    encodeStatsReply(&w, reply);
    std::vector<uint8_t> out;
    appendFrame(&out, MsgType::StatsReply, 0, request_id, payload);
    sendAll(conn, out);
}

StatsReply
Server::statsReply() const
{
    StatsReply reply;
    const ServiceStats svc = service_->stats();
    reply.counters = {
        {"serve.active_streams", svc.activeStreams},
        {"serve.resident_sessions", svc.residentSessions},
        {"serve.parked_sessions", svc.parkedSessions},
        {"serve.parked_bytes", svc.parkedBytes},
        {"serve.streams_opened", svc.streamsOpened},
        {"serve.streams_closed", svc.streamsClosed},
        {"serve.feeds", svc.feeds},
        {"serve.fed_bytes", svc.fedBytes},
        {"serve.parks", svc.parks},
        {"serve.resumes", svc.resumes},
        {"serve.fused_feeds", svc.fusedFeeds},
    };
    const AdmissionStats adm = queue_.stats();
    reply.counters.emplace_back("serve.requests", adm.requests);
    reply.counters.emplace_back("serve.admitted", adm.admitted);
    reply.counters.emplace_back("serve.overload", adm.overloaded);
    reply.counters.emplace_back("serve.retry", adm.retried);
    reply.counters.emplace_back("serve.shed", adm.shed);
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        reply.counters.emplace_back("serve.accepted", stats_.accepted);
        reply.counters.emplace_back("serve.disconnected",
                                    stats_.disconnected);
        reply.counters.emplace_back("serve.frames", stats_.frames);
        reply.counters.emplace_back("serve.bad_frames",
                                    stats_.badFrames);
    }

    // Request latency: the process-wide serve.request_micros histogram.
    const telemetry::Snapshot snap = telemetry::snapshot();
    const auto latency = snap.histograms.find("serve.request_micros");
    const telemetry::Snapshot::Hist lat =
        latency != snap.histograms.end() ? latency->second
                                         : telemetry::Snapshot::Hist{};
    reply.counters.emplace_back("serve.latency_count", lat.count);
    reply.counters.emplace_back(
        "serve.latency_p50_us", static_cast<uint64_t>(lat.quantile(0.50)));
    reply.counters.emplace_back(
        "serve.latency_p95_us", static_cast<uint64_t>(lat.quantile(0.95)));
    reply.counters.emplace_back(
        "serve.latency_p99_us", static_cast<uint64_t>(lat.quantile(0.99)));

    // Per-tenant totals: every labeled serve.* series in the registry,
    // plus the watchdog family and the slow-capture count.
    for (const auto &[name, value] : snap.counters) {
        const bool labeled =
            telemetry::splitLabeledName(name, nullptr, nullptr);
        if ((labeled && name.rfind("serve.", 0) == 0) ||
            name.rfind("serve.watchdog.", 0) == 0)
            reply.counters.emplace_back(name, value);
    }
    for (const auto &[name, value] : snap.gauges) {
        const bool labeled =
            telemetry::splitLabeledName(name, nullptr, nullptr);
        if ((labeled && name.rfind("serve.", 0) == 0) ||
            name.rfind("serve.watchdog.", 0) == 0)
            reply.counters.emplace_back(
                name, value < 0 ? 0 : static_cast<uint64_t>(value));
    }
    reply.counters.emplace_back(
        "serve.slow_captured",
        telemetry::SlowRequestRing::instance().totalCaptured());

    // Rolling windows: per-second milli-rates for every serve.* counter
    // (labeled series included — aptop's per-tenant columns), plus
    // windowed latency percentiles derived from the histogram deltas.
    const telemetry::WindowView views[kStatsHorizons] = {
        windows_.over(telemetry::kWindow10s),
        windows_.over(telemetry::kWindow1m),
        windows_.over(telemetry::kWindow5m)};
    for (size_t h = 0; h < kStatsHorizons; ++h)
        reply.windowSpanMicros[h] = views[h].spanMicros;
    const telemetry::WindowView *named = nullptr;
    for (const telemetry::WindowView &v : views) {
        if (v.valid()) {
            named = &v;
            break;
        }
    }
    if (named == nullptr)
        return reply;
    for (const auto &[name, value] : named->delta.counters) {
        if (name.rfind("serve.", 0) != 0)
            continue;
        StatsWindowRow row;
        row.name = name;
        bool any = false;
        for (size_t h = 0; h < kStatsHorizons; ++h) {
            row.milli[h] = static_cast<uint64_t>(
                std::llround(views[h].rate(name) * 1000.0));
            any = any || row.milli[h] != 0;
        }
        if (any && reply.windows.size() < kMaxStatsWindowRows)
            reply.windows.push_back(std::move(row));
    }
    static constexpr struct
    {
        const char *name;
        double q;
    } kWindowQuantiles[] = {{"serve.request_p50_us", 0.50},
                            {"serve.request_p95_us", 0.95},
                            {"serve.request_p99_us", 0.99}};
    for (const auto &wq : kWindowQuantiles) {
        StatsWindowRow row;
        row.name = wq.name;
        bool any = false;
        for (size_t h = 0; h < kStatsHorizons; ++h) {
            row.milli[h] = static_cast<uint64_t>(std::llround(
                views[h].histQuantile("serve.request_micros", wq.q) *
                1000.0));
            any = any || row.milli[h] != 0;
        }
        if (any && reply.windows.size() < kMaxStatsWindowRows)
            reply.windows.push_back(std::move(row));
    }
    return reply;
}

void
Server::sampleNow()
{
    const uint64_t now = nowMicros();
    windows_.push(now, telemetry::snapshot());
    watchdogTick(now);
    if (!config_.observability.metricsPath.empty()) {
        if (!telemetry::writePrometheusFile(
                config_.observability.metricsPath,
                telemetry::snapshot()))
            telemetry::LogEvent(telemetry::LogLevel::Warn,
                                "serve.metrics_file_error")
                .str("path", config_.observability.metricsPath);
    }
}

void
Server::observerLoop()
{
    std::unique_lock<std::mutex> lock(observer_mutex_);
    const auto period = std::chrono::milliseconds(
        config_.observability.samplePeriodMillis);
    while (!observer_stop_) {
        observer_cv_.wait_for(lock, period,
                              [this] { return observer_stop_; });
        if (observer_stop_)
            break;
        lock.unlock();
        sampleNow();
        lock.lock();
    }
}

void
Server::watchdogTick(uint64_t now_us)
{
    watchdogTicks().add(1);

    // A worker pinned on one request for stuckMicros is stuck: gauge
    // the current count, log each worker once per stuck episode.
    const uint64_t limit = config_.observability.stuckMicros;
    size_t stuck = 0;
    for (size_t i = 0; i < worker_count_; ++i) {
        const uint64_t busy =
            worker_busy_since_[i].load(std::memory_order_relaxed);
        const bool is_stuck =
            busy != 0 && now_us > busy && now_us - busy >= limit;
        if (is_stuck) {
            ++stuck;
            if (!worker_stuck_[i])
                telemetry::LogEvent(telemetry::LogLevel::Warn,
                                    "serve.watchdog.stuck_worker")
                    .num("worker", i)
                    .num("busy_us", now_us - busy);
        }
        worker_stuck_[i] = is_stuck;
    }
    watchdogStuckWorkers().set(static_cast<int64_t>(stuck));

    // A non-empty admission queue with no pop for stuckMicros means
    // the worker pool has stopped draining: count stalled ticks, log
    // the transition.
    const uint64_t last_pop =
        last_pop_micros_.load(std::memory_order_relaxed);
    const size_t depth = queue_.depth();
    const bool stalled = depth > 0 && last_pop != 0 &&
                         now_us > last_pop &&
                         now_us - last_pop >= limit;
    if (stalled) {
        watchdogQueueStalls().add(1);
        if (!queue_stalled_)
            telemetry::LogEvent(telemetry::LogLevel::Warn,
                                "serve.watchdog.queue_stall")
                .num("depth", depth)
                .num("since_pop_us", now_us - last_pop);
    }
    queue_stalled_ = stalled;
}

} // namespace serve
} // namespace sparseap
