#include "spap/executor.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sparseap {

namespace {

/** Fold one finished BaseAP/SpAP execution into the spap.* counters —
 *  per-execution sums of the already-merged batch outcomes, so the
 *  totals are identical at any thread count. */
void
recordSpapRun(const SpapRunStats &stats)
{
    static telemetry::Counter runs("spap.runs");
    static telemetry::Counter batches("spap.batches");
    static telemetry::Counter jumps("spap.jumps");
    static telemetry::Counter enables("spap.enables");
    static telemetry::Counter estalls("spap.estalls");
    static telemetry::Counter skipped("spap.skipped_symbols");
    static telemetry::Counter consumed("spap.consumed_cycles");
    static telemetry::Counter intermediate("spap.intermediate_reports");

    runs.add(1);
    batches.add(stats.spApBatches);
    jumps.add(stats.jumps);
    enables.add(stats.enables);
    estalls.add(stats.enableStalls);
    skipped.add(stats.skippedSymbols);
    consumed.add(stats.spApConsumedCycles);
    intermediate.add(stats.intermediateReports);
}

} // namespace

unsigned
ExecutionOptions::resolvedJobs() const
{
    const unsigned j = jobs == 0 ? globalOptions().jobs : jobs;
    return j == 0 ? 1 : j;
}

const FlatAutomaton &
PreparedPartition::hotAutomaton() const
{
    if (!hotFa)
        hotFa = std::make_shared<const FlatAutomaton>(part.hot);
    return *hotFa;
}

const FlatAutomaton &
PreparedPartition::coldAutomaton() const
{
    if (!coldFa)
        coldFa = std::make_shared<const FlatAutomaton>(part.cold);
    return *coldFa;
}

const SimResult &
PreparedPartition::hotRunResult() const
{
    if (!hotRun) {
        SPARSEAP_PHASE("hot_run");
        Engine engine(hotAutomaton());
        hotRun =
            std::make_shared<const SimResult>(engine.run(testInput));
    }
    return *hotRun;
}

BaselineResult
runBaseline(const Application &app, const ApConfig &config,
            std::span<const uint8_t> test_input, bool collect_reports,
            const FlatAutomaton *app_fa)
{
    BaselineResult r;
    r.batches = packWholeNfas(app, config.capacity).batchCount();
    r.cycles = static_cast<uint64_t>(r.batches) * test_input.size();
    if (collect_reports) {
        std::unique_ptr<FlatAutomaton> local;
        if (!app_fa) {
            local = std::make_unique<FlatAutomaton>(app);
            app_fa = local.get();
        }
        Engine engine(*app_fa);
        r.reports = engine.run(test_input).reports;
    }
    return r;
}

size_t
profilePrefixLength(const ExecutionOptions &opts, size_t input_size)
{
    SPARSEAP_ASSERT(opts.profileFraction > 0.0 &&
                        opts.profileFraction < 1.0,
                    "profileFraction must be in (0, 1), got ",
                    opts.profileFraction);
    const double reference =
        opts.profileReferenceBytes > 0
            ? static_cast<double>(opts.profileReferenceBytes)
            : static_cast<double>(input_size);
    size_t profile_len =
        static_cast<size_t>(reference * opts.profileFraction);
    profile_len = std::min(profile_len, input_size / 2);
    return std::max<size_t>(profile_len, 1);
}

PreparedPartition
preparePartition(const AppTopology &topo, const ExecutionOptions &opts,
                 std::span<const uint8_t> full_input)
{
    const size_t profile_len =
        profilePrefixLength(opts, full_input.size());
    const FlatAutomaton fa(topo.app());
    const HotColdProfile profile =
        profileApplication(fa, full_input.subspan(0, profile_len));
    return preparePartition(topo, opts, full_input, profile);
}

PreparedPartition
preparePartition(const AppTopology &topo, const ExecutionOptions &opts,
                 std::span<const uint8_t> full_input,
                 const HotColdProfile &profile)
{
    PreparedPartition prep;
    const size_t profile_len =
        profilePrefixLength(opts, full_input.size());
    prep.profileInput = full_input.subspan(0, profile_len);
    prep.testInput = opts.fullInputAsTest
                         ? full_input
                         : full_input.subspan(profile_len);

    prep.layers = chooseLayers(topo, profile);
    if (opts.fillOptimization) {
        SPARSEAP_PHASE("fill");
        prep.layers = fillToCapacity(topo, std::move(prep.layers),
                                     opts.ap.capacity, opts.partition);
    }
    {
        SPARSEAP_PHASE("partition");
        prep.part =
            partitionApplication(topo, prep.layers, opts.partition);
    }
    return prep;
}

namespace {

/**
 * Pack cold NFAs into SpAP batches at whole-NFA granularity. A cold
 * fragment larger than the capacity gets one over-full batch (splitting a
 * fragment would need another partitioning level), with a warning.
 */
std::vector<std::vector<uint32_t>>
packColdBatches(const Application &cold, size_t capacity,
                bool warn_overfull = true)
{
    std::vector<std::vector<uint32_t>> batches;
    std::vector<uint32_t> current;
    size_t used = 0;
    for (uint32_t i = 0; i < cold.nfaCount(); ++i) {
        const size_t sz = cold.nfa(i).size();
        if (sz > capacity && warn_overfull) {
            warn("cold fragment '", cold.nfa(i).name(), "' (", sz,
                 " states) exceeds the AP capacity (", capacity,
                 "); modelling it as one over-full SpAP batch");
        }
        if (used + sz > capacity && !current.empty()) {
            batches.push_back(std::move(current));
            current.clear();
            used = 0;
        }
        current.push_back(i);
        used += sz;
    }
    if (!current.empty())
        batches.push_back(std::move(current));
    return batches;
}

/**
 * Fetch (or build) the prep's cold execution plan for @p capacity:
 * batch composition plus the cold-NFA -> (batch, local-id base) index
 * that lets the event dispatch bucket events in one pass instead of
 * rescanning the full event list per batch.
 */
PreparedPartition::ColdPlan &
coldPlanFor(const PreparedPartition &prep, size_t capacity)
{
    if (prep.coldPlan && prep.coldPlan->capacity == capacity)
        return *prep.coldPlan;

    auto plan = std::make_shared<PreparedPartition::ColdPlan>();
    plan->capacity = capacity;
    plan->batches = packColdBatches(prep.part.cold, capacity);
    plan->nfaBatch.resize(prep.part.cold.nfaCount());
    plan->nfaLocalBase.resize(prep.part.cold.nfaCount());
    for (size_t bi = 0; bi < plan->batches.size(); ++bi) {
        GlobalStateId base = 0;
        for (uint32_t ci : plan->batches[bi]) {
            plan->nfaBatch[ci] = static_cast<uint32_t>(bi);
            plan->nfaLocalBase[ci] = base;
            base += static_cast<GlobalStateId>(
                prep.part.cold.nfa(ci).size());
        }
    }
    plan->batchApps.resize(plan->batches.size());
    plan->batchFas.resize(plan->batches.size());
    prep.coldPlan = std::move(plan);
    return *prep.coldPlan;
}

/** Build batch @p bi's fragment application and flat automaton once. */
const FlatAutomaton &
batchAutomaton(PreparedPartition::ColdPlan &plan, const Application &cold,
               size_t bi)
{
    if (!plan.batchFas[bi]) {
        auto app = std::make_unique<Application>();
        for (uint32_t ci : plan.batches[bi])
            app->addNfa(cold.nfa(ci));
        plan.batchFas[bi] = std::make_unique<FlatAutomaton>(*app);
        plan.batchApps[bi] = std::move(app);
    }
    return *plan.batchFas[bi];
}

/**
 * Sort @p reports, the concatenation of segments that end at the
 * entries of @p ends and are each in nondecreasing position order (the
 * hot run's final reports, then each cold batch's): sort each run of
 * equal positions by state, skipping runs already in order, then merge
 * the segments pairwise — instead of sorting the whole list anew.
 */
void
sortReportSegments(ReportList &reports, std::span<const size_t> ends)
{
    const auto at = [&](size_t i) {
        return reports.begin() + static_cast<std::ptrdiff_t>(i);
    };
    size_t begin = 0;
    for (size_t end : ends) {
        for (size_t i = begin; i < end;) {
            size_t j = i + 1;
            while (j < end && reports[j].position == reports[i].position)
                ++j;
            SPARSEAP_ASSERT(j == end ||
                                reports[j].position > reports[i].position,
                            "report segment out of position order");
            if (!std::is_sorted(at(i), at(j)))
                std::sort(at(i), at(j));
            i = j;
        }
        begin = end;
    }
    const size_t k = ends.size();
    for (size_t width = 1; width < k; width *= 2) {
        for (size_t g = 0; g + width < k; g += 2 * width) {
            const size_t lo = g == 0 ? 0 : ends[g - 1];
            const size_t mid = ends[g + width - 1];
            const size_t hi = ends[std::min(g + 2 * width, k) - 1];
            std::inplace_merge(at(lo), at(mid), at(hi));
        }
    }
}

} // namespace

std::vector<uint32_t>
coldBatchAssignment(const Application &cold, size_t capacity)
{
    const auto batches =
        packColdBatches(cold, capacity, /*warn_overfull=*/false);
    std::vector<uint32_t> assignment(cold.nfaCount());
    for (size_t bi = 0; bi < batches.size(); ++bi)
        for (uint32_t ci : batches[bi])
            assignment[ci] = static_cast<uint32_t>(bi);
    return assignment;
}

SpapRunStats
runBaseApSpap(const AppTopology &topo, const ExecutionOptions &opts,
              const PreparedPartition &prep, bool collect_reports)
{
    const Application &app = topo.app();
    const PartitionedApp &part = prep.part;
    const std::span<const uint8_t> test = prep.testInput;

    SpapRunStats stats;
    stats.testLength = test.size();
    stats.totalStates = app.totalStates();
    stats.baseApStates = part.hot.totalStates();
    stats.intermediateStates = part.intermediateCount;
    stats.hotOriginalReporting = part.hotOriginalReporting;
    stats.resourceSavings = part.resourceSavings(app.totalStates());

    // Baseline batch count (cycle model only; reports aren't needed here).
    stats.baselineBatches =
        packWholeNfas(app, opts.ap.capacity).batchCount();
    stats.baselineCycles =
        static_cast<uint64_t>(stats.baselineBatches) * test.size();

    // ----- BaseAP mode: execute the predicted hot set. -----
    stats.baseApBatches =
        packWholeNfas(part.hot, opts.ap.capacity).batchCount();
    stats.baseApCycles =
        static_cast<uint64_t>(stats.baseApBatches) * test.size();

    const SimResult &hot_run = prep.hotRunResult();

    // Split BaseAP reports into final reports and intermediate events.
    ReportList final_reports;
    std::vector<SpapEvent> events; // targets as original global ids
    events.reserve(hot_run.reports.size());
    if (collect_reports)
        final_reports.reserve(hot_run.reports.size());
    for (const Report &r : hot_run.reports) {
        const GlobalStateId target = part.intermediateTarget[r.state];
        if (target != kInvalidGlobal) {
            events.push_back({r.position, target});
        } else if (collect_reports) {
            final_reports.push_back(
                {r.position, part.hotToOriginal[r.state]});
        }
    }
    stats.intermediateReports = events.size();
    std::vector<size_t> segment_ends = {final_reports.size()};

    // ----- SpAP mode: execute the predicted cold set. -----
    if (part.cold.nfaCount() > 0) {
        PreparedPartition::ColdPlan &plan =
            coldPlanFor(prep, opts.ap.capacity);
        stats.spApConfiguredBatches = plan.batches.size();

        // One bucketing pass groups the events by target batch, already
        // translated to batch-local ids. The single position-ordered scan
        // keeps every bucket sorted by position (runSpapMode's
        // precondition), and a batch with no events never starts (its
        // SpAP run would jump straight past the end).
        std::vector<std::vector<SpapEvent>> batch_events(
            plan.batches.size());
        for (const SpapEvent &e : events) {
            const GlobalStateId cold_id = part.originalToCold[e.state];
            SPARSEAP_ASSERT(cold_id != kInvalidGlobal,
                            "intermediate event targets a non-cold state");
            const uint32_t ci = part.cold.resolve(cold_id).nfa;
            const GlobalStateId local =
                plan.nfaLocalBase[ci] +
                (cold_id - part.cold.nfaOffset(ci));
            batch_events[plan.nfaBatch[ci]].push_back({e.position, local});
        }

        std::vector<size_t> active_batches;
        for (size_t bi = 0; bi < plan.batches.size(); ++bi) {
            if (!batch_events[bi].empty())
                active_batches.push_back(bi);
        }
        stats.spApBatches = active_batches.size();

        // Cold batches execute with the process-wide core selection:
        // Auto lets a batch that runs hot hand itself over to the
        // class-compressed, live-word-skipping dense core mid-run, with
        // identical cycle statistics and report multiset on every core.
        const EngineMode cold_mode = globalOptions().engineMode;

        // Batches are independent — each replays the whole input against
        // its own cold fragment — so they fan out over the thread pool.
        // Per-batch results land in per-index slots and are merged below
        // in batch order, keeping all output (reports, summed cycle
        // stats) bit-identical at any thread count.
        struct BatchOutcome
        {
            uint64_t totalCycles = 0;
            uint64_t consumedCycles = 0;
            uint64_t enableStalls = 0;
            uint64_t jumps = 0;
            uint64_t enables = 0;
            uint64_t skippedSymbols = 0;
            ReportList reports; ///< translated to original global ids
        };
        std::vector<BatchOutcome> outcomes(active_batches.size());

        parallelFor(opts.resolvedJobs(), active_batches.size(),
                    [&](size_t k) {
            const size_t bi = active_batches[k];
            SPARSEAP_SPAN("spap.batch", "batch",
                          static_cast<uint64_t>(bi), "events",
                          static_cast<uint64_t>(batch_events[bi].size()));
            const FlatAutomaton &batch_fa =
                batchAutomaton(plan, part.cold, bi);
            const SpapResult r =
                runSpapMode(batch_fa, test, batch_events[bi], cold_mode);
            BatchOutcome &out = outcomes[k];
            out.totalCycles = r.totalCycles();
            out.consumedCycles = r.consumedCycles;
            out.enableStalls = r.enableStalls;
            out.jumps = r.jumps;
            out.enables = r.enables;
            out.skippedSymbols = r.skippedSymbols;
            if (collect_reports) {
                out.reports.reserve(r.reports.size());
                const Application &batch_app = *plan.batchApps[bi];
                for (const Report &rep : r.reports) {
                    // batch-local id -> cold gid -> original gid.
                    const GlobalStateRef ref = batch_app.resolve(rep.state);
                    const GlobalStateId cold_id =
                        part.cold.nfaOffset(plan.batches[bi][ref.nfa]) +
                        ref.state;
                    out.reports.push_back(
                        {rep.position, part.coldToOriginal[cold_id]});
                }
            }
        });

        for (const BatchOutcome &out : outcomes) {
            stats.spApCycles += out.totalCycles;
            stats.spApConsumedCycles += out.consumedCycles;
            stats.enableStalls += out.enableStalls;
            stats.jumps += out.jumps;
            stats.enables += out.enables;
            stats.skippedSymbols += out.skippedSymbols;
            final_reports.insert(final_reports.end(),
                                 out.reports.begin(), out.reports.end());
            segment_ends.push_back(final_reports.size());
        }

        if (stats.spApBatches > 0 && test.size() > 0) {
            const double denom =
                static_cast<double>(stats.spApBatches) *
                static_cast<double>(test.size());
            stats.jumpRatio =
                1.0 -
                static_cast<double>(stats.spApConsumedCycles) / denom;
        }
    }

    const uint64_t ours = stats.baseApCycles + stats.spApCycles;
    stats.speedup = ours == 0 ? 1.0
                              : static_cast<double>(stats.baselineCycles) /
                                    static_cast<double>(ours);

    if (collect_reports) {
        sortReportSegments(final_reports, segment_ends);
        stats.reports = std::move(final_reports);
    }
    recordSpapRun(stats);
    return stats;
}

SpapRunStats
runBaseApSpap(const AppTopology &topo, const ExecutionOptions &opts,
              std::span<const uint8_t> full_input, bool collect_reports)
{
    const PreparedPartition prep =
        preparePartition(topo, opts, full_input);
    return runBaseApSpap(topo, opts, prep, collect_reports);
}

} // namespace sparseap
