#include "sim/exec_core.h"

#include <limits>

#include "common/logging.h"
#include "common/word_vector.h"
#include "sim/profiler.h"

namespace sparseap {

namespace {

constexpr uint64_t kAllFold = ~uint64_t{0};

/** The epoch no step may start with: it would mark its successors with
 *  0, the mark of every never-enabled state. */
constexpr uint32_t kWrapEpoch = std::numeric_limits<uint32_t>::max();

} // namespace

ExecCore::ExecCore(const FlatAutomaton &fa,
                   std::span<const GlobalStateId> report_ids,
                   Lookahead lookahead)
    : fa_(fa), report_ids_(report_ids), lookahead_(lookahead),
      self_loop_(fa.size(), 0), status_(fa.size(), Status::Normal),
      mark_(fa.size(), 0)
{
    SPARSEAP_ASSERT(report_ids.empty() || report_ids.size() == fa.size(),
                    "one report id per state");
    for (GlobalStateId s = 0; s < fa.size(); ++s) {
        for (GlobalStateId t : fa.successors(s)) {
            if (t == s) {
                self_loop_[s] = 1;
                break;
            }
        }
    }
}

Bitset256
ExecCore::distinctBytes(std::span<const uint8_t> input)
{
    Bitset256 set;
    for (uint8_t b : input)
        set.set(b);
    return set;
}

bool
ExecCore::universal(GlobalStateId s) const
{
    // symbols(s) covers every byte of the stream: alphabet & ~symbols
    // must be empty.
    return (input_alphabet_ & ~fa_.symbols(s)).empty();
}

void
ExecCore::reset(const Bitset256 &input_alphabet,
                HotStateProfiler *profiler, bool install_starts)
{
    input_alphabet_ = input_alphabet;
    profiler_ = profiler;
    if (lookahead_ == Lookahead::TwoSymbols && !profiler &&
        continuation_.empty())
        continuation_ = fa_.continuationFolds();

    std::fill(status_.begin(), status_.end(), Status::Normal);
    std::fill(mark_.begin(), mark_.end(), 0u);
    epoch_ = 1;
    enabled_.clear();
    next_enabled_.clear();
    for (auto &bucket : perm_table_)
        bucket.clear();
    perm_next_.fill(Bitset256());
    perm_fold2_.fill(0);
    permanent_count_ = 0;
    permanent_states_.clear();
    latched_pending_.clear();
    latched_reporting_.clear();
    pending_permanent_.clear();

    if (!install_starts)
        return;

    // Always-enabled starts are permanent by definition.
    for (GlobalStateId s : fa_.allInputStarts()) {
        if (profiler_)
            profiler_->markEnabled(s);
        if (status_[s] == Status::Normal)
            makePermanent(s);
    }
    // Start-of-data starts are enabled for the first cycle only.
    for (GlobalStateId s : fa_.startOfDataStarts()) {
        if (profiler_)
            profiler_->markEnabled(s);
        enableState(s);
    }
}

void
ExecCore::makePermanent(GlobalStateId s)
{
    SPARSEAP_ASSERT(status_[s] == Status::Normal,
                    "makePermanent on non-normal state ", s);
    if (profiler_)
        profiler_->markEnabled(s);
    ++permanent_count_;
    permanent_states_.push_back(s);
    if (universal(s)) {
        status_[s] = Status::Latched;
        latched_pending_.push_back(s);
    } else {
        status_[s] = Status::Permanent;
        // The bytes an activation of s can act on at the next symbol
        // (its successors' symbols) and the fold of those they can
        // carry on to at the symbol after (their continuation folds);
        // every byte when s reports or a successor latches.
        Bitset256 next = Bitset256::all();
        uint64_t second = kAllFold;
        if (!fa_.reporting(s)) {
            next = Bitset256();
            second = continuation_.empty() ? kAllFold : 0;
            for (GlobalStateId t : fa_.successors(s)) {
                if (latches(t)) {
                    next = Bitset256::all();
                    second = kAllFold;
                    break;
                }
                next |= fa_.symbols(t);
                if (!continuation_.empty())
                    second |= continuation_[t];
            }
        }
        const Dispatch entry{s, next.fold64(), second};
        const Bitset256 accepted = input_alphabet_ & fa_.symbols(s);
        forEachSetBit(std::span<const uint64_t>(accepted.words),
                      [&](size_t b) {
                          perm_table_[b].push_back(entry);
                          perm_next_[b] |= next;
                          perm_fold2_[b] |= second;
                      });
    }
}

void
ExecCore::snapshotEnabled(std::vector<GlobalStateId> *out) const
{
    for (GlobalStateId s : enabled_) {
        if (status_[s] == Status::Normal && mark_[s] == epoch_)
            out->push_back(s);
    }
    out->insert(out->end(), permanent_states_.begin(),
                permanent_states_.end());
}

void
ExecCore::saveState(Snapshot *out) const
{
    out->dynamic.clear();
    out->permanent.clear();
    for (GlobalStateId s : enabled_) {
        if (status_[s] == Status::Normal && mark_[s] == epoch_)
            out->dynamic.push_back(s);
    }
    out->permanent.assign(permanent_states_.begin(),
                          permanent_states_.end());
}

void
ExecCore::restoreState(const Bitset256 &input_alphabet,
                       const Snapshot &snap)
{
    reset(input_alphabet, nullptr, /*install_starts=*/false);
    // Replaying the promotions in promotion order rebuilds the
    // per-symbol dispatch buckets in the original order; latched states
    // re-enter latched_pending_ and are (re-)expanded at the next
    // step(), which appends latched_reporting_ in the same promotion
    // order the original run accumulated — so the per-cycle report
    // prefix is unchanged. Successor promotions triggered by that
    // expansion find their targets already non-Normal and are no-ops.
    for (GlobalStateId s : snap.permanent)
        makePermanent(s);
    // Dynamic states in list order. None of them is universal with a
    // self-loop (those are promoted the moment they are enabled), so
    // enableState appends without promoting.
    for (GlobalStateId s : snap.dynamic)
        enableState(s);
}

void
ExecCore::enableState(GlobalStateId s)
{
    if (status_[s] != Status::Normal)
        return; // already permanently enabled
    if (profiler_)
        profiler_->markEnabled(s);
    if (latches(s)) {
        // Enabled now, activates on every symbol, re-enables itself:
        // permanently enabled from this cycle on.
        makePermanent(s);
        return;
    }
    if (mark_[s] != epoch_) {
        mark_[s] = epoch_;
        enabled_.push_back(s);
    }
}

void
ExecCore::setEpochForTesting(uint32_t epoch)
{
    SPARSEAP_ASSERT(epoch != 0 && epoch < kWrapEpoch, "epoch ", epoch,
                    " out of range");
    renumberEpoch(epoch);
}

void
ExecCore::renumberEpoch(uint32_t epoch)
{
    std::fill(mark_.begin(), mark_.end(), 0u);
    epoch_ = epoch;
    for (GlobalStateId s : enabled_)
        mark_[s] = epoch;
}

template <int kDepth>
void
ExecCore::enableForNext(GlobalStateId t, uint8_t next, uint8_t next2)
{
    if (status_[t] != Status::Normal)
        return;
    // Dropped, without a mark (see the file comment), unless it latches
    // or it accepts the next byte and (two symbols) its continuation
    // fold holds the byte after.
    if (kDepth > 0 &&
        !(fa_.symbols(t).test(next) &&
          (kDepth == 1 || foldHolds(continuation_[t], next2))) &&
        !latches(t))
        return;
    const uint32_t next_epoch = epoch_ + 1;
    if (mark_[t] != next_epoch) {
        mark_[t] = next_epoch;
        next_enabled_.push_back(t);
        if (profiler_)
            profiler_->markEnabled(t);
        if (latches(t)) {
            // Will latch at the start of the next cycle.
            pending_permanent_.push_back(t);
        }
    }
}

template <int kDepth>
void
ExecCore::activate(GlobalStateId s, uint64_t position,
                   ReportList *reports, uint8_t next, uint8_t next2)
{
    if (fa_.reporting(s) && reports)
        reports->push_back({position, reportId(s)});
    for (GlobalStateId t : fa_.successors(s))
        enableForNext<kDepth>(t, next, next2);
}

void
ExecCore::expandLatched()
{
    for (GlobalStateId s : latched_pending_) {
        if (fa_.reporting(s))
            latched_reporting_.push_back(s);
        // A latched state activates on every remaining cycle, so its
        // successors are permanently enabled from the next cycle on.
        for (GlobalStateId t : fa_.successors(s)) {
            if (t != s && status_[t] == Status::Normal)
                pending_permanent_.push_back(t);
        }
    }
    latched_pending_.clear();
}

void
ExecCore::flushPending()
{
    for (GlobalStateId s : pending_permanent_) {
        if (status_[s] == Status::Normal)
            makePermanent(s);
    }
    pending_permanent_.clear();
}

void
ExecCore::step(uint8_t symbol, uint64_t position, ReportList *reports,
               int next, int next2)
{
    if (next == kNoLookahead || profiler_)
        stepWith<0>(symbol, position, reports, 0, 0);
    else if (next2 == kNoLookahead || continuation_.empty())
        stepWith<1>(symbol, position, reports, static_cast<uint8_t>(next),
                    0);
    else
        stepWith<2>(symbol, position, reports, static_cast<uint8_t>(next),
                    static_cast<uint8_t>(next2));
}

template <int kDepth>
void
ExecCore::stepWith(uint8_t symbol, uint64_t position, ReportList *reports,
                   uint8_t next, uint8_t next2)
{
    expandLatched();

    // Latched reporting states match every actual input byte.
    if (reports) {
        for (GlobalStateId s : latched_reporting_)
            reports->push_back({position, reportId(s)});
    }

    next_enabled_.clear();
    last_step_work_ = perm_table_[symbol].size() + enabled_.size();

    for (const Dispatch &d : perm_table_[symbol]) {
        // A non-reporting entry none of whose successors can take the
        // next byte (or carry on to the byte after) or latch would
        // enqueue nothing.
        if (kDepth > 0 && !foldHolds(d.successorFold, next))
            continue;
        if (kDepth == 2 && !foldHolds(d.secondFold, next2))
            continue;
        activate<kDepth>(d.state, position, reports, next, next2);
    }

    for (GlobalStateId s : enabled_) {
        // A state may have become permanent while queued.
        if (status_[s] == Status::Normal && fa_.symbols(s).test(symbol))
            activate<kDepth>(s, position, reports, next, next2);
    }

    enabled_.swap(next_enabled_);
    if (++epoch_ == kWrapEpoch)
        renumberEpoch(1);
    flushPending();
}

} // namespace sparseap
