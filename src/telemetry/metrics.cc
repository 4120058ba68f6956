#include "telemetry/metrics.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/logging.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace sparseap {
namespace telemetry {

namespace {

/** Cells per allocation chunk; chunk addresses never move once handed
 *  out, so the owning thread's unlocked fast path stays valid across
 *  growth. */
constexpr size_t kChunkShift = 8;
constexpr size_t kChunkCells = 1ull << kChunkShift;

/** One thread's private cell block (see file comment of metrics.h). */
struct ThreadCells
{
    /** Stable-addressed chunks; the vector itself is guarded by the
     *  registry mutex for cross-thread (snapshot) access. */
    std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> chunks;

    std::atomic<uint64_t> *
    tryCell(uint32_t id)
    {
        const size_t c = id >> kChunkShift;
        if (c >= chunks.size())
            return nullptr;
        return &chunks[c][id & (kChunkCells - 1)];
    }
};

struct CounterDesc
{
    std::string name;
    uint32_t cell;
};

struct HistDesc
{
    std::string name;
    uint32_t firstCell; ///< kBuckets bucket cells, then the sum cell
};

struct GaugeDesc
{
    std::string name;
};

/** Cells one histogram occupies: its buckets plus a value-sum cell. */
constexpr uint32_t kHistCells =
    static_cast<uint32_t>(Histogram::kBuckets) + 1;

class Registry
{
  public:
    static Registry &instance();

    uint32_t
    internCounter(const char *name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const CounterDesc &c : counters_) {
            if (c.name == name)
                return c.cell;
        }
        const uint32_t cell = cell_count_++;
        counters_.push_back({name, cell});
        return cell;
    }

    uint32_t
    internHistogram(const char *name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const HistDesc &h : hists_) {
            if (h.name == name)
                return h.firstCell;
        }
        const uint32_t first = cell_count_;
        cell_count_ += kHistCells;
        hists_.push_back({name, first});
        return first;
    }

    uint32_t
    internGauge(const char *name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (uint32_t i = 0; i < gauges_.size(); ++i) {
            if (gauges_[i].name == name)
                return i;
        }
        gauges_.push_back({name});
        gauge_values_.emplace_back(0);
        gauge_used_.emplace_back(false);
        return static_cast<uint32_t>(gauges_.size() - 1);
    }

    void
    gaugeSet(uint32_t id, int64_t v)
    {
        gauge_values_[id].store(v, std::memory_order_relaxed);
        gauge_used_[id].store(true, std::memory_order_relaxed);
    }

    void
    gaugeMax(uint32_t id, int64_t v)
    {
        std::atomic<int64_t> &g = gauge_values_[id];
        int64_t cur = g.load(std::memory_order_relaxed);
        while (v > cur &&
               !g.compare_exchange_weak(cur, v,
                                        std::memory_order_relaxed)) {
        }
        gauge_used_[id].store(true, std::memory_order_relaxed);
    }

    /** The calling thread's cell for @p id, growing its block (under
     *  the registry mutex, so concurrent snapshots stay safe). */
    std::atomic<uint64_t> &
    cell(uint32_t id)
    {
        ThreadCells &tc = threadCells();
        if (std::atomic<uint64_t> *c = tc.tryCell(id))
            return *c;
        std::lock_guard<std::mutex> lock(mutex_);
        while ((id >> kChunkShift) >= tc.chunks.size()) {
            auto chunk =
                std::make_unique<std::atomic<uint64_t>[]>(kChunkCells);
            for (size_t i = 0; i < kChunkCells; ++i)
                chunk[i].store(0, std::memory_order_relaxed);
            tc.chunks.push_back(std::move(chunk));
        }
        return *tc.tryCell(id);
    }

    Snapshot
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Merge: sum each cell over every thread block. Addition
        // commutes, so the result is independent of thread count and
        // scheduling.
        auto sum_cell = [&](uint32_t id) {
            uint64_t total = 0;
            for (const auto &cells : all_cells_) {
                const size_t c = id >> kChunkShift;
                if (c < cells->chunks.size()) {
                    total += cells->chunks[c][id & (kChunkCells - 1)]
                                 .load(std::memory_order_relaxed);
                }
            }
            return total;
        };

        Snapshot s;
        for (const CounterDesc &c : counters_)
            s.counters[c.name] = sum_cell(c.cell);
        for (uint32_t i = 0; i < gauges_.size(); ++i) {
            if (gauge_used_[i].load(std::memory_order_relaxed)) {
                s.gauges[gauges_[i].name] =
                    gauge_values_[i].load(std::memory_order_relaxed);
            }
        }
        for (const HistDesc &h : hists_) {
            Snapshot::Hist out;
            for (size_t b = 0; b < Histogram::kBuckets; ++b) {
                out.buckets[b] =
                    sum_cell(h.firstCell + static_cast<uint32_t>(b));
                out.count += out.buckets[b];
            }
            out.sum = sum_cell(h.firstCell +
                               static_cast<uint32_t>(
                                   Histogram::kBuckets));
            s.histograms[h.name] = out;
        }

        // Fold in the thread pool's self-maintained statistics (the
        // pool lives in common/, below this library).
        if (const ThreadPool *pool = ThreadPool::globalIfCreated()) {
            const ThreadPool::Stats ps = pool->stats();
            s.counters["pool.tasks"] = ps.tasksExecuted;
            s.gauges["pool.queue_high_water"] =
                static_cast<int64_t>(ps.queueHighWater);
            Snapshot::Hist lat;
            lat.count = ps.taskMicros.count();
            lat.sum = ps.taskMicros.sum();
            lat.buckets = ps.taskMicros.buckets();
            s.histograms["pool.task_us"] = lat;
        }
        return s;
    }

  private:
    Registry();

    /** This thread's cell block, registered on first use. */
    ThreadCells &
    threadCells()
    {
        thread_local ThreadCells *cells = [this] {
            auto owned = std::make_shared<ThreadCells>();
            ThreadCells *raw = owned.get();
            std::lock_guard<std::mutex> lock(mutex_);
            // Blocks are retained after thread exit so retired threads'
            // contributions stay in every later snapshot.
            all_cells_.push_back(std::move(owned));
            return raw;
        }();
        return *cells;
    }

    std::mutex mutex_;
    uint32_t cell_count_ = 0;
    std::vector<CounterDesc> counters_;
    std::vector<HistDesc> hists_;
    std::vector<GaugeDesc> gauges_;
    std::deque<std::atomic<int64_t>> gauge_values_;
    std::deque<std::atomic<bool>> gauge_used_;
    std::vector<std::shared_ptr<ThreadCells>> all_cells_;
};

/** SPARSEAP_STATS end-of-process summary (see initFromEnv). */
void
printExitSummary()
{
    const char *v = std::getenv("SPARSEAP_STATS");
    if (!v || !*v)
        return;
    const Snapshot s = telemetry::snapshot();
    if (s.empty())
        return;
    if (std::strcmp(v, "-") == 0 || std::strcmp(v, "1") == 0 ||
        std::strcmp(v, "stderr") == 0) {
        printSnapshot(std::cerr, s);
        return;
    }
    std::ofstream out(v, std::ios::app);
    if (!out) {
        warn("SPARSEAP_STATS: cannot open '", v, "' for append");
        return;
    }
    printSnapshot(out, s);
}

Registry::Registry()
{
    // Register the summary hook here so any binary that touches one
    // metric gets the SPARSEAP_STATS summary without extra wiring.
    std::atexit(printExitSummary);
}

Registry &
Registry::instance()
{
    // Leaked on purpose: worker threads and atexit handlers may touch
    // metrics during static destruction.
    static Registry *registry = new Registry();
    return *registry;
}

std::string
fmtCount(uint64_t v)
{
    return std::to_string(v);
}

} // namespace

Counter::Counter(const char *name)
    : id_(Registry::instance().internCounter(name))
{
}

void
Counter::add(uint64_t n)
{
    std::atomic<uint64_t> &cell = Registry::instance().cell(id_);
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

Gauge::Gauge(const char *name)
    : id_(Registry::instance().internGauge(name))
{
}

void
Gauge::set(int64_t v)
{
    Registry::instance().gaugeSet(id_, v);
}

void
Gauge::max(int64_t v)
{
    Registry::instance().gaugeMax(id_, v);
}

HistogramMetric::HistogramMetric(const char *name)
    : first_cell_(Registry::instance().internHistogram(name))
{
}

void
HistogramMetric::add(uint64_t v)
{
    Registry &reg = Registry::instance();
    const uint32_t bucket =
        first_cell_ + static_cast<uint32_t>(Histogram::bucketOf(v));
    std::atomic<uint64_t> &bcell = reg.cell(bucket);
    bcell.store(bcell.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    std::atomic<uint64_t> &scell = reg.cell(
        first_cell_ + static_cast<uint32_t>(Histogram::kBuckets));
    scell.store(scell.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
}

std::map<std::string, uint64_t>
Snapshot::deterministicCounters() const
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : counters) {
        if (name.rfind("pool.", 0) == 0)
            continue;
        out.emplace(name, value);
    }
    return out;
}

Snapshot
Snapshot::deltaTo(const Snapshot &after) const
{
    Snapshot d;
    for (const auto &[name, value] : after.counters) {
        auto it = counters.find(name);
        d.counters[name] =
            value - (it != counters.end() ? it->second : 0);
    }
    d.gauges = after.gauges; // levels, not rates: keep the later value
    for (const auto &[name, hist] : after.histograms) {
        Snapshot::Hist dh = hist;
        auto it = histograms.find(name);
        if (it != histograms.end()) {
            dh.count -= it->second.count;
            dh.sum -= it->second.sum;
            for (size_t b = 0; b < Histogram::kBuckets; ++b)
                dh.buckets[b] -= it->second.buckets[b];
        }
        d.histograms[name] = dh;
    }
    return d;
}

bool
Snapshot::empty() const
{
    for (const auto &[name, value] : counters) {
        if (value != 0)
            return false;
    }
    for (const auto &[name, hist] : histograms) {
        if (hist.count != 0)
            return false;
    }
    return gauges.empty();
}

Snapshot
snapshot()
{
    return Registry::instance().snapshot();
}

void
printSnapshot(std::ostream &os, const Snapshot &s)
{
    os << "### telemetry\n";
    if (!s.counters.empty()) {
        Table t({"Counter", "Value"});
        for (const auto &[name, value] : s.counters)
            t.addRow({name, fmtCount(value)});
        t.print(os);
        os << "\n";
    }
    if (!s.gauges.empty()) {
        Table t({"Gauge", "Value"});
        for (const auto &[name, value] : s.gauges)
            t.addRow({name, std::to_string(value)});
        t.print(os);
        os << "\n";
    }
    if (!s.histograms.empty()) {
        Table t({"Histogram", "Count", "Mean", "P50", "P95", "P99",
                 "Sum"});
        for (const auto &[name, h] : s.histograms) {
            t.addRow({name, fmtCount(h.count), Table::fmt(h.mean(), 1),
                      Table::fmt(h.quantile(0.50), 1),
                      Table::fmt(h.quantile(0.95), 1),
                      Table::fmt(h.quantile(0.99), 1),
                      fmtCount(h.sum)});
        }
        t.print(os);
    }
    os.flush();
}

void
writeSnapshotJson(std::ostream &os, const Snapshot &s,
                  const std::string &app)
{
    os << "{\"record\":\"telemetry\",\"app\":\"" << app
       << "\",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : s.counters) {
        os << (first ? "" : ",") << '"' << name << "\":" << value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : s.gauges) {
        os << (first ? "" : ",") << '"' << name << "\":" << value;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : s.histograms) {
        os << (first ? "" : ",") << '"' << name
           << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
           << ",\"p50\":" << h.quantile(0.50)
           << ",\"p95\":" << h.quantile(0.95)
           << ",\"p99\":" << h.quantile(0.99) << ",\"buckets\":[";
        // Trailing zero buckets are elided; bucket index is positional.
        size_t last = 0;
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
            if (h.buckets[b] != 0)
                last = b + 1;
        }
        for (size_t b = 0; b < last; ++b)
            os << (b ? "," : "") << h.buckets[b];
        os << "]}";
        first = false;
    }
    os << "}}\n";
}

void
initFromEnv()
{
    Registry::instance();
}

} // namespace telemetry
} // namespace sparseap
