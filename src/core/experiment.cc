#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "store/artifact.h"
#include "store/cache.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workloads/inputs.h"

namespace sparseap {

namespace {

// ---------------------------------------------------- artifact keys --
// Every compiled artifact is content-addressed by a DigestBuilder fold
// of the app's cacheKey (workload identity + structural fingerprint +
// input hash, see LoadedApp) and the parameters that shape the artifact.
// The store format version is folded in by DigestBuilder itself, so a
// layout change misses the cache instead of misreading old blobs.

uint64_t
flatArtifactKey(const LoadedApp &app)
{
    return store::DigestBuilder()
        .add("flat")
        .add(app.cacheKey)
        .digest();
}

uint64_t
profileArtifactKey(const LoadedApp &app, size_t prefix_len)
{
    // Engine mode is deliberately absent: all stepping cores produce
    // bit-identical profiles (property-tested in test_profiler).
    return store::DigestBuilder()
        .add("profile")
        .add(app.cacheKey)
        .add(prefix_len)
        .digest();
}

uint64_t
partitionArtifactKey(const LoadedApp &app, const ExecutionOptions &opts,
                     size_t prefix_len)
{
    return store::DigestBuilder()
        .add("partition")
        .add(app.cacheKey)
        .add(prefix_len)
        .add(opts.ap.capacity)
        .add(opts.fillOptimization ? 1 : 0)
        .add(opts.partition.dedupeIntermediates ? 1 : 0)
        .digest();
}

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

const AppTopology &
LoadedApp::topology() const
{
    if (!topo_)
        topo_ = std::make_unique<AppTopology>(workload.app);
    return *topo_;
}

const FlatAutomaton &
LoadedApp::flat() const
{
    if (flat_)
        return *flat_;
    const store::ArtifactCache &cache = store::ArtifactCache::global();
    const bool cached = cache.enabled() && cacheKey != 0;
    if (cached) {
        const uint64_t key = flatArtifactKey(*this);
        if (auto blob =
                cache.load(store::ArtifactKind::FlatAutomaton, key)) {
            std::string error;
            if (auto fa = store::decodeFlatAutomaton(*blob, 0, &error)) {
                flat_ = std::move(fa);
                return *flat_;
            }
            warn("artifact cache: ", error, " (recomputing)");
        }
        flat_ = std::make_unique<FlatAutomaton>(workload.app);
        store::BlobWriter w(store::ArtifactKind::FlatAutomaton, key);
        store::encodeFlatAutomaton(*flat_, w);
        cache.store(w);
        return *flat_;
    }
    flat_ = std::make_unique<FlatAutomaton>(workload.app);
    return *flat_;
}

const HotColdProfile &
LoadedApp::profile(size_t prefix_len) const
{
    auto it = profiles_.find(prefix_len);
    if (it != profiles_.end())
        return it->second;

    const store::ArtifactCache &cache = store::ArtifactCache::global();
    if (cache.enabled() && cacheKey != 0) {
        const uint64_t key = profileArtifactKey(*this, prefix_len);
        if (auto blob = cache.load(store::ArtifactKind::Profile, key)) {
            HotColdProfile prof;
            size_t stored_len = 0;
            std::string error;
            if (store::decodeProfile(*blob, &prof, &stored_len, &error) &&
                stored_len == prefix_len &&
                prof.hot.size() == workload.app.totalStates()) {
                return profiles_.emplace(prefix_len, std::move(prof))
                    .first->second;
            }
            warn("artifact cache: unusable profile blob (recomputing)");
        }
        HotColdProfile prof = profileApplication(
            flat(), std::span<const uint8_t>(input.data(), prefix_len));
        store::BlobWriter w(store::ArtifactKind::Profile, key);
        store::encodeProfile(prof, prefix_len, w);
        cache.store(w);
        return profiles_.emplace(prefix_len, std::move(prof))
            .first->second;
    }

    return profiles_
        .emplace(prefix_len,
                 profileApplication(flat(),
                                    std::span<const uint8_t>(
                                        input.data(), prefix_len)))
        .first->second;
}

void
LoadedApp::prewarmProfiles(std::span<const double> fractions) const
{
    std::vector<size_t> lens;
    lens.reserve(fractions.size());
    for (double f : fractions) {
        const size_t len =
            profilePrefixLength(execOptions(f, 1), input.size());
        if (!profiles_.count(len))
            lens.push_back(len);
    }
    std::sort(lens.begin(), lens.end());
    lens.erase(std::unique(lens.begin(), lens.end()), lens.end());

    // Serve what the artifact cache already holds; only the remaining
    // lengths need the (single, checkpointed) profiling pass.
    const store::ArtifactCache &cache = store::ArtifactCache::global();
    const bool cached = cache.enabled() && cacheKey != 0;
    if (cached) {
        std::vector<size_t> todo;
        for (size_t len : lens) {
            const uint64_t key = profileArtifactKey(*this, len);
            auto blob = cache.load(store::ArtifactKind::Profile, key);
            HotColdProfile prof;
            size_t stored_len = 0;
            std::string error;
            if (blob &&
                store::decodeProfile(*blob, &prof, &stored_len, &error) &&
                stored_len == len &&
                prof.hot.size() == workload.app.totalStates()) {
                profiles_.emplace(len, std::move(prof));
            } else {
                todo.push_back(len);
            }
        }
        lens = std::move(todo);
    }
    if (lens.empty())
        return;
    std::vector<HotColdProfile> profs =
        profileApplication(flat(), input, lens);
    for (size_t i = 0; i < lens.size(); ++i) {
        if (cached) {
            store::BlobWriter w(store::ArtifactKind::Profile,
                                profileArtifactKey(*this, lens[i]));
            store::encodeProfile(profs[i], lens[i], w);
            cache.store(w);
        }
        profiles_.emplace(lens[i], std::move(profs[i]));
    }
}

const ReportList &
LoadedApp::referenceReports() const
{
    if (!reference_reports_) {
        Engine engine(flat());
        reference_reports_ =
            std::make_unique<ReportList>(engine.run(input).reports);
    }
    return *reference_reports_;
}

ExperimentRunner::ExperimentRunner()
    : opts_(globalOptions()), start_(std::chrono::steady_clock::now())
{
}

LoadedApp
ExperimentRunner::generate(const std::string &abbr) const
{
    LoadedApp loaded;
    loaded.entry = findApp(abbr);
    loaded.workload =
        generateWorkload(abbr, opts_.seed, opts_.scalePercent);
    Rng input_rng(opts_.seed ^ 0x9e3779b97f4a7c15ull ^
                  std::hash<std::string>{}(abbr));
    size_t bytes = opts_.inputBytes;
    if (loaded.workload.inputBytesCap > 0)
        bytes = std::min(bytes, loaded.workload.inputBytesCap);
    loaded.input =
        synthesizeInput(loaded.workload.input, bytes, input_rng);
    loaded.cacheKey =
        store::DigestBuilder()
            .add("workload")
            .add(abbr)
            .add(opts_.seed)
            .add(opts_.scalePercent)
            .add(loaded.workload.app.totalStates())
            .add(loaded.workload.app.nfaCount())
            .add(store::hash64(loaded.input.data(), loaded.input.size()))
            .digest();
    inform("generated ", abbr, ": ", loaded.workload.app.totalStates(),
           " states, ", loaded.workload.app.nfaCount(), " NFAs");
    return loaded;
}

const LoadedApp &
ExperimentRunner::load(const std::string &abbr)
{
    auto it = cache_.find(abbr);
    if (it != cache_.end())
        return it->second;
    return cache_.emplace(abbr, generate(abbr)).first->second;
}

void
ExperimentRunner::unload(const std::string &abbr)
{
    cache_.erase(abbr);
}

std::vector<std::string>
ExperimentRunner::selectApps(const std::string &groups) const
{
    std::vector<std::string> out;
    for (const auto &entry : appCatalog()) {
        if (groups.find(entry.group) == std::string::npos)
            continue;
        if (!opts_.apps.empty() &&
            std::find(opts_.apps.begin(), opts_.apps.end(), entry.abbr) ==
                opts_.apps.end()) {
            continue;
        }
        out.push_back(entry.abbr);
    }
    return out;
}

void
ExperimentRunner::forEachApp(
    const std::string &groups,
    const std::function<void(const LoadedApp &, size_t)> &fn,
    unsigned jobs)
{
    const std::vector<std::string> apps = selectApps(groups);
    if (apps.empty())
        return;
    const unsigned lanes = std::max(1u, jobs == 0 ? opts_.jobs : jobs);

    // Every app gets a private LoadedApp (so the per-app caches need no
    // locks) and a private log buffer; fn writes results into per-index
    // slots, and the buffered logs are replayed in catalog order below —
    // the lane count is invisible in all output.
    //
    // Telemetry attribution: counter deltas are exact per app only when
    // the sweep is serial, so one lane emits one record per app and a
    // parallel sweep emits one cumulative record for the whole sweep
    // (tagged "*"). Either way the telemetry goes to SPARSEAP_JSON,
    // never to stdout/stderr, so sweep output stays byte-identical at
    // any lane count.
    const bool want_telemetry = !opts_.jsonPath.empty();
    telemetry::Snapshot sweep_before;
    if (want_telemetry)
        sweep_before = telemetry::snapshot();

    std::vector<std::string> logs(apps.size());
    parallelFor(lanes, apps.size(), [&](size_t i) {
        ScopedLogCapture capture(&logs[i]);
        SPARSEAP_SPAN("app", "abbr", apps[i]);
        telemetry::Snapshot app_before;
        const bool per_app = want_telemetry && lanes == 1;
        if (per_app)
            app_before = telemetry::snapshot();
        const LoadedApp app = generate(apps[i]);
        fn(app, i);
        if (per_app)
            appendTelemetry(apps[i],
                            app_before.deltaTo(telemetry::snapshot()));
    });
    for (const std::string &log : logs)
        std::cerr << log;

    if (want_telemetry && lanes > 1)
        appendTelemetry("*",
                        sweep_before.deltaTo(telemetry::snapshot()));
}

void
ExperimentRunner::printTable(const Table &table) const
{
    if (opts_.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout.flush();
    if (!opts_.jsonPath.empty())
        appendJson(table);
    ++tables_printed_;
}

std::ofstream *
ExperimentRunner::jsonStream() const
{
    if (!json_out_) {
        if (json_failed_ || opts_.jsonPath.empty())
            return nullptr;
        json_out_ = std::make_unique<std::ofstream>(opts_.jsonPath,
                                                    std::ios::app);
        if (!*json_out_) {
            warn("SPARSEAP_JSON: cannot open '", opts_.jsonPath,
                 "' for append");
            json_out_.reset();
            json_failed_ = true; // warn once, not once per table
            return nullptr;
        }
    }
    return json_out_.get();
}

void
ExperimentRunner::appendTelemetry(const std::string &tag,
                                  const telemetry::Snapshot &snap) const
{
    std::ofstream *out = jsonStream();
    if (!out || snap.empty())
        return;
    telemetry::writeSnapshotJson(*out, snap, jsonEscape(tag));
    out->flush();
}

void
ExperimentRunner::appendJson(const Table &table) const
{
    std::ofstream *out_ptr = jsonStream();
    if (!out_ptr)
        return;
    std::ofstream &out = *out_ptr;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();

    // One self-contained JSON object per line (JSON Lines), so a shell
    // loop over bench binaries can share one trajectory file.
    out << "{\"table_index\":" << tables_printed_
        << ",\"engine_mode\":\"" << engineModeName(opts_.engineMode)
        << "\",\"jobs\":" << opts_.jobs << ",\"seed\":" << opts_.seed
        << ",\"input_bytes\":" << opts_.inputBytes
        << ",\"scale_percent\":" << opts_.scalePercent
        << ",\"wall_seconds\":" << wall << ",\"columns\":[";
    const auto &cols = table.columns();
    for (size_t c = 0; c < cols.size(); ++c) {
        out << (c ? "," : "") << '"' << jsonEscape(cols[c]) << '"';
    }
    out << "],\"rows\":[";
    const auto &rows = table.rowData();
    for (size_t r = 0; r < rows.size(); ++r) {
        out << (r ? ",{" : "{");
        for (size_t c = 0; c < rows[r].size(); ++c) {
            out << (c ? "," : "") << '"' << jsonEscape(cols[c])
                << "\":\"" << jsonEscape(rows[r][c]) << '"';
        }
        out << '}';
    }
    out << "]}\n";
    out.flush();
}

void
printSection(const std::string &title)
{
    std::cout << "\n### " << title << "\n\n";
}

PreparedPartition
preparePartition(const LoadedApp &app, const ExecutionOptions &opts)
{
    const size_t profile_len =
        profilePrefixLength(opts, app.input.size());
    const store::ArtifactCache &cache = store::ArtifactCache::global();
    if (!cache.enabled() || app.cacheKey == 0) {
        return preparePartition(app.topology(), opts, app.input,
                                app.profile(profile_len));
    }

    const std::span<const uint8_t> full_input(app.input.data(),
                                              app.input.size());
    const uint64_t key = partitionArtifactKey(app, opts, profile_len);
    if (auto blob = cache.load(store::ArtifactKind::Partition, key)) {
        PreparedPartition prep;
        std::string error;
        if (store::decodePreparedPartition(*blob, &prep, &error)) {
            // The stored blob holds everything derived from the input
            // *content*; the two input views are positions in the
            // caller's stream and are re-derived here.
            prep.profileInput = full_input.subspan(0, profile_len);
            prep.testInput = opts.fullInputAsTest
                                 ? full_input
                                 : full_input.subspan(profile_len);
            return prep;
        }
        warn("artifact cache: ", error, " (recomputing)");
    }
    PreparedPartition prep = preparePartition(
        app.topology(), opts, app.input, app.profile(profile_len));
    store::BlobWriter w(store::ArtifactKind::Partition, key);
    store::encodePreparedPartition(prep, opts.ap.capacity, w);
    cache.store(w);
    return prep;
}

SpapRunStats
runAppConfig(const LoadedApp &app, double profile_fraction,
             size_t capacity, const PartitionOptions &partition,
             bool fill_optimization)
{
    ExecutionOptions opts = app.execOptions(profile_fraction, capacity);
    opts.partition = partition;
    opts.fillOptimization = fill_optimization;
    const PreparedPartition prep = preparePartition(app, opts);
    return runBaseApSpap(app.topology(), opts, prep);
}

const HotColdProfile &
oracleProfile(const LoadedApp &app)
{
    return app.profile(app.input.size());
}

} // namespace sparseap
