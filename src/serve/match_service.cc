#include "serve/match_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sparseap {
namespace serve {

namespace {

telemetry::Counter &
feedsCounter()
{
    static telemetry::Counter c("serve.feeds");
    return c;
}

telemetry::Counter &
fedBytesCounter()
{
    static telemetry::Counter c("serve.fed_bytes");
    return c;
}

telemetry::Counter &
parksCounter()
{
    static telemetry::Counter c("serve.parks");
    return c;
}

telemetry::Counter &
resumesCounter()
{
    static telemetry::Counter c("serve.resumes");
    return c;
}

telemetry::Gauge &
activeStreamsGauge()
{
    static telemetry::Gauge g("serve.active_streams");
    return g;
}

telemetry::Gauge &
residentGauge()
{
    static telemetry::Gauge g("serve.resident_sessions");
    return g;
}

telemetry::Gauge &
parkedGauge()
{
    static telemetry::Gauge g("serve.parked_sessions");
    return g;
}

telemetry::Gauge &
parkedBytesGauge()
{
    static telemetry::Gauge g("serve.parked_bytes");
    return g;
}

// Per-tenant attribution families (bounded cardinality; leaked
// singletons so series survive service teardown like registry cells).
telemetry::LabeledCounter &
feedsByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.feeds");
    return c;
}

telemetry::LabeledCounter &
fedBytesByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.fed_bytes");
    return c;
}

telemetry::LabeledCounter &
dfaCyclesByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.dfa_cycles");
    return c;
}

telemetry::LabeledCounter &
denseCyclesByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.dense_cycles");
    return c;
}

telemetry::LabeledCounter &
splitCyclesByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.split_cycles");
    return c;
}

telemetry::LabeledCounter &
sparseCyclesByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.sparse_cycles");
    return c;
}

telemetry::LabeledCounter &
skipSymbolsByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.skip_symbols");
    return c;
}

telemetry::LabeledCounter &
skipJumpsByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.skip_jumps");
    return c;
}

telemetry::LabeledCounter &
quietStepsByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.quiet_steps");
    return c;
}

telemetry::LabeledGauge &
parkedBytesByTenant()
{
    static auto &g =
        *new telemetry::LabeledGauge("serve.parked_bytes");
    return g;
}

/** One feed call's per-tenant attribution, folded once at checkin
 *  (never per symbol — see the kernel instrumentation rules). */
struct TenantFold
{
    uint64_t feeds = 0;
    uint64_t bytes = 0;
    uint64_t dfaCycles = 0;
    uint64_t denseCycles = 0;
    uint64_t splitCycles = 0;
    uint64_t sparseCycles = 0;
    uint64_t skipSymbols = 0;
    uint64_t skipJumps = 0;
    uint64_t quietSteps = 0;

    /** Attribute one session's stats delta to the core the session
     *  ran the feed on (a stream never switches cores). */
    void
    addDelta(const SessionStats &before, const SessionStats &after,
             const EngineSession &session)
    {
        const uint64_t cycles = after.cycles - before.cycles;
        switch (session.resolvedMode()) {
        case EngineMode::Dfa:
            dfaCycles += cycles;
            break;
        case EngineMode::Dense:
            denseCycles += cycles;
            break;
        case EngineMode::Split:
            splitCycles += cycles;
            break;
        default:
            sparseCycles += cycles;
            break;
        }
        skipSymbols += after.skippedSymbols - before.skippedSymbols;
        skipJumps += after.skipJumps - before.skipJumps;
        quietSteps += after.quietSteps - before.quietSteps;
    }

    void
    publish(const std::string &tenant) const
    {
        feedsByTenant().add(tenant, feeds);
        if (bytes)
            fedBytesByTenant().add(tenant, bytes);
        if (dfaCycles)
            dfaCyclesByTenant().add(tenant, dfaCycles);
        if (denseCycles)
            denseCyclesByTenant().add(tenant, denseCycles);
        if (splitCycles)
            splitCyclesByTenant().add(tenant, splitCycles);
        if (sparseCycles)
            sparseCyclesByTenant().add(tenant, sparseCycles);
        if (skipSymbols)
            skipSymbolsByTenant().add(tenant, skipSymbols);
        if (skipJumps)
            skipJumpsByTenant().add(tenant, skipJumps);
        if (quietSteps)
            quietStepsByTenant().add(tenant, quietSteps);
    }
};

} // namespace

const char *
opStatusName(OpStatus s)
{
    switch (s) {
    case OpStatus::Ok:
        return "ok";
    case OpStatus::UnknownTenant:
        return "unknown-tenant";
    case OpStatus::UnknownStream:
        return "unknown-stream";
    case OpStatus::StreamExists:
        return "stream-exists";
    case OpStatus::TooManyStreams:
        return "too-many-streams";
    }
    return "?";
}

/**
 * One stream of one tenant. Exactly one of {resident, parked, fresh}
 * holds: a resident stream has a live session attached; a parked one
 * carries its state in `snapshot`; a fresh one has consumed nothing
 * and materializes via restart() on first checkout. Streams are held
 * by shared_ptr so a caller blocked on `busy` can revalidate against
 * the table after waking instead of dereferencing a freed entry.
 */
struct MatchService::Stream
{
    uint64_t id = 0;      ///< table key (checkin re-finds the entry)
    bool fresh = true;    ///< never checked out; no snapshot yet
    bool resident = false;
    bool busy = false;    ///< checked out by some caller
    bool doomed = false;  ///< owner released while busy; destroy at checkin
    std::unique_ptr<EngineSession> session; ///< when resident
    EngineSession::Snapshot snapshot;       ///< when parked
    uint64_t snapshotBytes = 0;
    uint64_t offset = 0; ///< mirror of the session offset while parked
    uint64_t lru = 0;    ///< last-checkout tick (park order)
    uint64_t owner = 0;  ///< connection tag for releaseOwner()
};

struct MatchService::Tenant
{
    std::string name;
    std::shared_ptr<const FlatAutomaton> fa;
    SessionConfig session;
    std::unordered_map<uint64_t, std::shared_ptr<Stream>> streams;
    /** Idle sessions kept for reuse (allocation recycling). */
    std::vector<std::unique_ptr<EngineSession>> pool;
};

MatchService::MatchService(MatchServiceConfig config) : config_(config) {}

MatchService::~MatchService() = default;

void
MatchService::addTenant(const std::string &name,
                        std::shared_ptr<const FlatAutomaton> fa,
                        SessionConfig session)
{
    SPARSEAP_ASSERT(fa != nullptr, "tenant automaton must be non-null");
    std::lock_guard<std::mutex> lock(mutex_);
    auto t = std::make_unique<Tenant>();
    t->name = name;
    t->fa = std::move(fa);
    t->session = session;
    tenants_[name] = std::move(t);
}

bool
MatchService::hasTenant(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenants_.count(name) != 0;
}

std::vector<TenantInfo>
MatchService::tenants() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TenantInfo> out;
    out.reserve(tenants_.size());
    for (const auto &[name, t] : tenants_)
        out.push_back({name, t->fa->size(), t->streams.size()});
    return out;
}

MatchService::Tenant *
MatchService::findTenant(const std::string &name)
{
    auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
}

const MatchService::Tenant *
MatchService::findTenant(const std::string &name) const
{
    auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
}

std::unique_ptr<EngineSession>
MatchService::takeSessionLocked(Tenant *tenant)
{
    if (!tenant->pool.empty()) {
        std::unique_ptr<EngineSession> s =
            std::move(tenant->pool.back());
        tenant->pool.pop_back();
        return s;
    }
    return std::make_unique<EngineSession>(*tenant->fa,
                                           tenant->session);
}

void
MatchService::recycleSessionLocked(Tenant *tenant,
                                   std::unique_ptr<EngineSession> session)
{
    if (tenant->pool.size() < config_.sessionPoolSize)
        tenant->pool.push_back(std::move(session));
    // else: dropped; the pool bounds idle engine memory per tenant.
}

void
MatchService::publishGaugesLocked()
{
    size_t open = 0;
    for (const auto &[name, t] : tenants_) {
        open += t->streams.size();
        uint64_t parked = 0;
        for (const auto &[id, s] : t->streams)
            parked += s->snapshotBytes;
        parkedBytesByTenant().set(name, parked);
    }
    activeStreamsGauge().set(static_cast<int64_t>(open));
    residentGauge().set(static_cast<int64_t>(resident_count_));
    parkedGauge().set(
        static_cast<int64_t>(open >= resident_count_
                                 ? open - resident_count_
                                 : 0));
    parkedBytesGauge().set(static_cast<int64_t>(parked_bytes_));
}

OpStatus
MatchService::open(const std::string &tenant_name, uint64_t stream_id,
                   uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant *t = findTenant(tenant_name);
    if (t == nullptr)
        return OpStatus::UnknownTenant;
    if (t->streams.count(stream_id))
        return OpStatus::StreamExists;
    if (t->streams.size() >= config_.maxStreamsPerTenant)
        return OpStatus::TooManyStreams;
    auto stream = std::make_shared<Stream>();
    stream->id = stream_id;
    stream->owner = owner;
    t->streams.emplace(stream_id, std::move(stream));
    ++stats_.streamsOpened;
    publishGaugesLocked();
    return OpStatus::Ok;
}

void
MatchService::checkoutLocked(std::unique_lock<std::mutex> *lock,
                             Tenant *tenant, Stream *stream)
{
    while (stream->busy)
        busy_cv_.wait(*lock);
    stream->busy = true;
    stream->lru = ++lru_clock_;
    if (stream->resident)
        return;

    std::unique_ptr<EngineSession> session = takeSessionLocked(tenant);
    const bool fresh = stream->fresh;
    EngineSession::Snapshot snapshot;
    if (fresh) {
        stream->fresh = false;
    } else {
        snapshot = std::move(stream->snapshot);
        stream->snapshot = EngineSession::Snapshot{};
        parked_bytes_ -= stream->snapshotBytes;
        stream->snapshotBytes = 0;
        ++stats_.resumes;
        resumesCounter().add(1);
    }
    // restart()/resume() may build a decided automaton's DFA or split
    // over the whole automaton: run it unlocked, so other streams and
    // tenants keep feeding. The busy flag keeps this stream ours
    // meanwhile.
    lock->unlock();
    if (fresh)
        session->restart();
    else
        session->resume(snapshot);
    lock->lock();
    stream->session = std::move(session);
    stream->resident = true;
    ++resident_count_;
}

void
MatchService::parkLocked(Tenant *tenant, Stream *stream)
{
    stream->snapshot = stream->session->suspend();
    stream->snapshotBytes = stream->snapshot.byteSize();
    stream->offset = stream->session->offset();
    parked_bytes_ += stream->snapshotBytes;
    recycleSessionLocked(tenant, std::move(stream->session));
    stream->resident = false;
    --resident_count_;
    ++stats_.parks;
    parksCounter().add(1);
}

void
MatchService::enforceBudgetLocked()
{
    // Linear LRU scan over the session table: parking happens at most
    // once per feed past the budget, and the table is small relative
    // to the work a feed does; a heap would only matter at stream
    // counts where the snapshots themselves dominate memory.
    while (resident_count_ > config_.residentSessions) {
        Tenant *victim_tenant = nullptr;
        Stream *victim = nullptr;
        for (const auto &[name, t] : tenants_) {
            for (const auto &[id, s] : t->streams) {
                if (!s->resident || s->busy)
                    continue;
                if (victim == nullptr || s->lru < victim->lru) {
                    victim = s.get();
                    victim_tenant = t.get();
                }
            }
        }
        if (victim == nullptr)
            break; // everything resident is busy; retry next checkin
        parkLocked(victim_tenant, victim);
    }
}

void
MatchService::destroyStreamLocked(Tenant *tenant, uint64_t stream_id,
                                  Stream *stream)
{
    if (stream->resident) {
        recycleSessionLocked(tenant, std::move(stream->session));
        stream->resident = false;
        --resident_count_;
    } else if (!stream->fresh) {
        parked_bytes_ -= stream->snapshotBytes;
    }
    tenant->streams.erase(stream_id);
    ++stats_.streamsClosed;
}

void
MatchService::checkinLocked(Tenant *tenant, Stream *stream)
{
    stream->busy = false;
    if (stream->resident)
        stream->offset = stream->session->offset();

    // A close() or releaseOwner() can win the busy-wait race and erase
    // the table entry between this caller's checkout wait and its wake;
    // the shared_ptr keeps the Stream alive, but the resident session
    // must be detached here or the budget leaks a ghost forever.
    auto it = tenant->streams.find(stream->id);
    const bool in_table =
        it != tenant->streams.end() && it->second.get() == stream;
    if (!in_table) {
        if (stream->resident) {
            recycleSessionLocked(tenant, std::move(stream->session));
            stream->resident = false;
            --resident_count_;
        }
    } else if (stream->doomed) {
        // Owner disconnected while the feed ran; destroy at checkin.
        destroyStreamLocked(tenant, stream->id, stream);
    }
    enforceBudgetLocked();
    publishGaugesLocked();
    busy_cv_.notify_all();
}

OpStatus
MatchService::feedMany(const std::string &tenant_name,
                       std::span<const FeedEntry> entries,
                       std::vector<ReportGroup> *out)
{
    out->clear();
    if (entries.empty())
        return OpStatus::Ok;

    // The distinct stream ids, ascending: the checkout order, so
    // concurrent feedMany calls acquiring overlapping stream sets can't
    // deadlock on each other's busy flags.
    std::vector<uint64_t> ids;
    ids.reserve(entries.size());
    for (const FeedEntry &e : entries)
        ids.push_back(e.streamId);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    // Every stream is validated and checked out before any byte is
    // fed, so a failed call leaves every stream where it was.
    Tenant *t = nullptr;
    std::vector<std::shared_ptr<Stream>> held(ids.size()); // by ids[k]
    {
        std::unique_lock<std::mutex> lock(mutex_);
        t = findTenant(tenant_name);
        if (t == nullptr)
            return OpStatus::UnknownTenant;
        for (uint64_t id : ids)
            if (!t->streams.count(id))
                return OpStatus::UnknownStream;
        for (size_t k = 0; k < ids.size(); ++k) {
            auto it = t->streams.find(ids[k]);
            bool gone = it == t->streams.end();
            if (!gone) {
                held[k] = it->second;
                checkoutLocked(&lock, t, held[k].get());
                auto again = t->streams.find(ids[k]);
                gone = again == t->streams.end() ||
                       again->second != held[k];
            }
            if (gone) {
                // Swept while a checkout waited: release everything
                // this call holds (a non-null slot is one it checked
                // out, so its busy flag is ours) and fail.
                for (const std::shared_ptr<Stream> &s : held)
                    if (s)
                        checkinLocked(t, s.get());
                return OpStatus::UnknownStream;
            }
        }
    }

    if (config_.debugFeedDelayMicros != 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.debugFeedDelayMicros));

    std::vector<EngineSession *> sessions(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
        const size_t k = static_cast<size_t>(
            std::lower_bound(ids.begin(), ids.end(),
                             entries[i].streamId) -
            ids.begin());
        sessions[i] = held[k]->session.get();
    }
    std::vector<SessionStats> before;
    before.reserve(held.size());
    for (const std::shared_ptr<Stream> &s : held)
        before.push_back(s->session->stats());

    // With distinct ids, the DFA-phase streams advance together through
    // one interleaved table walk (EngineSession::feedFused). Everything
    // else — all entries when an id repeats — feeds in entry order.
    SPARSEAP_SPAN("service.feed_many");
    std::vector<EngineSession *> fused_sessions;
    std::vector<std::span<const uint8_t>> fused_chunks;
    std::vector<bool> fused(entries.size(), false);
    if (ids.size() == entries.size()) {
        for (size_t i = 0; i < entries.size(); ++i) {
            if (sessions[i]->dfaPhase()) {
                fused_sessions.push_back(sessions[i]);
                fused_chunks.push_back(entries[i].chunk);
                fused[i] = true;
            }
        }
    }
    const bool fuse = fused_sessions.size() >= 2;
    if (fuse)
        EngineSession::feedFused(
            std::span<EngineSession *const>(fused_sessions),
            std::span<const std::span<const uint8_t>>(fused_chunks));

    out->resize(entries.size());
    uint64_t bytes = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (!(fuse && fused[i]))
            sessions[i]->feed(entries[i].chunk);
        ReportGroup &g = (*out)[i];
        g.streamId = entries[i].streamId;
        g.streamOffset = sessions[i]->offset();
        g.reports = sessions[i]->takeReports();
        bytes += entries[i].chunk.size();
    }

    TenantFold fold;
    fold.feeds = entries.size();
    fold.bytes = bytes;
    for (size_t k = 0; k < held.size(); ++k)
        fold.addDelta(before[k], held[k]->session->stats(),
                      *held[k]->session);
    fold.publish(tenant_name);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.feeds += entries.size();
        stats_.fedBytes += bytes;
        if (fuse)
            ++stats_.fusedFeeds;
        feedsCounter().add(entries.size());
        fedBytesCounter().add(bytes);
        for (const std::shared_ptr<Stream> &s : held)
            checkinLocked(t, s.get());
    }
    return OpStatus::Ok;
}

OpStatus
MatchService::close(const std::string &tenant_name, uint64_t stream_id,
                    ReportGroup *out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Tenant *t = findTenant(tenant_name);
    if (t == nullptr)
        return OpStatus::UnknownTenant;
    auto it = t->streams.find(stream_id);
    if (it == t->streams.end())
        return OpStatus::UnknownStream;
    std::shared_ptr<Stream> stream = it->second;

    while (stream->busy)
        busy_cv_.wait(lock);
    auto again = t->streams.find(stream_id);
    if (again == t->streams.end() || again->second != stream)
        return OpStatus::UnknownStream;

    out->streamId = stream_id;
    if (stream->resident) {
        out->streamOffset = stream->session->offset();
        out->reports = stream->session->takeReports();
    } else {
        // Parked (or fresh) streams have no undrained reports — every
        // feed drains before a suspend.
        out->streamOffset = stream->offset;
        out->reports.clear();
    }
    destroyStreamLocked(t, stream_id, stream.get());
    publishGaugesLocked();
    busy_cv_.notify_all();
    return OpStatus::Ok;
}

OpStatus
MatchService::matchOneShot(const std::string &tenant_name,
                           std::span<const uint8_t> input,
                           ReportGroup *out)
{
    Tenant *t = nullptr;
    std::unique_ptr<EngineSession> session;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        t = findTenant(tenant_name);
        if (t == nullptr)
            return OpStatus::UnknownTenant;
        session = takeSessionLocked(t);
    }

    session->restart();
    {
        SPARSEAP_SPAN("session.match");
        session->feed(input);
    }
    out->streamId = 0;
    out->streamOffset = session->offset();
    out->reports = session->takeReports();
    TenantFold fold;
    fold.feeds = 1;
    fold.bytes = input.size();
    // restart() zeroed the stats, so the run *is* the delta.
    fold.addDelta(SessionStats{}, session->stats(), *session);
    fold.publish(tenant_name);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.feeds;
        stats_.fedBytes += input.size();
        feedsCounter().add(1);
        fedBytesCounter().add(input.size());
        recycleSessionLocked(t, std::move(session));
    }
    return OpStatus::Ok;
}

size_t
MatchService::releaseOwner(uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (const auto &[name, t] : tenants_) {
        for (auto it = t->streams.begin(); it != t->streams.end();) {
            Stream *s = it->second.get();
            if (s->owner != owner) {
                ++it;
                continue;
            }
            if (s->busy) {
                // A worker is mid-feed; it destroys the stream at
                // checkin (the doomed flag) so the session can't leak.
                s->doomed = true;
                ++it;
                ++dropped;
                continue;
            }
            const uint64_t id = it->first;
            ++it; // destroyStreamLocked erases `id`
            destroyStreamLocked(t.get(), id, s);
            ++dropped;
        }
    }
    publishGaugesLocked();
    busy_cv_.notify_all();
    return dropped;
}

size_t
MatchService::openStreamCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t open = 0;
    for (const auto &[name, t] : tenants_)
        open += t->streams.size();
    return open;
}

ServiceStats
MatchService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats s = stats_;
    size_t open = 0;
    for (const auto &[name, t] : tenants_)
        open += t->streams.size();
    s.activeStreams = open;
    s.residentSessions = resident_count_;
    s.parkedSessions =
        open >= resident_count_ ? open - resident_count_ : 0;
    s.parkedBytes = parked_bytes_;
    return s;
}

} // namespace serve
} // namespace sparseap
