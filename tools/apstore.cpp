/**
 * @file
 * apstore: command-line front end of the compiled-artifact store.
 *
 *   apstore build [abbr...]   compile + store artifacts (flat automaton,
 *                             hot/cold profiles, prepared partition) for
 *                             the given apps (default: all 26) under the
 *                             standard configuration (1%% / 0.1%%
 *                             profiling at the 24K half-core)
 *   apstore ls [--json]       list cached objects (--json: one JSON
 *                             object per line, machine-readable)
 *   apstore inspect <obj>     dump one blob's header and section table
 *                             (<obj> is a path or a 16-hex digest)
 *   apstore verify            re-validate every object's checksums
 *   apstore gc [--all]        drop stale temp files and invalid blobs
 *                             (--all empties the cache)
 *   apstore stats             summarize the journal (stores per artifact
 *                             kind, bytes written) and the object store
 *                             (object count, on-disk bytes), printed in
 *                             the shared telemetry snapshot format
 *
 * The cache directory comes from SPARSEAP_CACHE_DIR; workload identity
 * (seed, scale, input size, app filter) from the usual SPARSEAP_*
 * variables, so `apstore build` prewarms exactly what the bench binaries
 * will look up.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/sparseap.h"
#include "store/artifact.h"
#include "telemetry/metrics.h"

using namespace sparseap;
using store::ArtifactCache;
using store::BlobView;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: apstore <build [abbr...] | ls [--json] | inspect <obj> | "
        "verify | gc [--all] | stats>\n"
        "       (cache directory: SPARSEAP_CACHE_DIR)\n");
    return 2;
}

const ArtifactCache &
cacheOrDie()
{
    const ArtifactCache &cache = ArtifactCache::global();
    if (!cache.enabled())
        fatal("apstore needs SPARSEAP_CACHE_DIR (and SPARSEAP_CACHE not "
              "'off')");
    return cache;
}

int
cmdBuild(const std::vector<std::string> &args)
{
    const ArtifactCache &cache = cacheOrDie();
    ExperimentRunner runner;
    std::vector<std::string> apps =
        args.empty() ? runner.selectApps("HML") : args;

    const double fractions[] = {0.001, 0.01};
    for (const std::string &abbr : apps) {
        const LoadedApp &app = runner.load(abbr);
        app.flat();
        app.prewarmProfiles(fractions);
        for (double f : fractions)
            preparePartition(app,
                             app.execOptions(f, ApConfig::kHalfCore));
        runner.unload(abbr);
    }
    const store::CacheStats s = cache.stats();
    std::printf("built %zu app(s): %llu stored, %llu already cached\n",
                apps.size(), static_cast<unsigned long long>(s.stores),
                static_cast<unsigned long long>(s.hits));
    return 0;
}

/** JSON string escaping for paths (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

int
cmdLs(bool json)
{
    const ArtifactCache &cache = cacheOrDie();
    // --json emits one object per line (JSON Lines), so daemon startup
    // scripts and tests can enumerate loadable applications without
    // scraping the aligned human table.
    Table table({"Kind", "Digest", "Sections", "Bytes", "Path"});
    size_t count = 0;
    for (const std::string &path : cache.listObjects()) {
        std::string error;
        std::shared_ptr<const BlobView> blob =
            BlobView::open(path, &error);
        if (!blob) {
            if (json)
                std::printf("{\"kind\":\"INVALID\",\"path\":\"%s\"}\n",
                            jsonEscape(path).c_str());
            else
                table.addRow({"INVALID", "-", "-", "-", path});
            ++count;
            continue;
        }
        if (json) {
            std::printf("{\"kind\":\"%s\",\"digest\":\"%s\","
                        "\"sections\":%zu,\"bytes\":%zu,"
                        "\"path\":\"%s\"}\n",
                        artifactKindName(blob->kind()),
                        store::digestHex(blob->digest()).c_str(),
                        blob->sections().size(), blob->fileSize(),
                        jsonEscape(path).c_str());
        } else {
            table.addRow({artifactKindName(blob->kind()),
                          store::digestHex(blob->digest()),
                          std::to_string(blob->sections().size()),
                          std::to_string(blob->fileSize()), path});
        }
        ++count;
    }
    if (!json) {
        table.print(std::cout);
        std::printf("%zu object(s) in %s\n", count, cache.dir().c_str());
    }
    return 0;
}

/** Resolve a CLI object argument: a path, or a digest in the cache. */
std::string
resolveObject(const std::string &arg)
{
    if (arg.size() == 16 &&
        arg.find_first_not_of("0123456789abcdef") == std::string::npos) {
        const ArtifactCache &cache = ArtifactCache::global();
        if (cache.enabled()) {
            const uint64_t digest =
                std::strtoull(arg.c_str(), nullptr, 16);
            return cache.objectPath(digest);
        }
    }
    return arg;
}

/** Name of a FlatAutomaton section relative to its base. */
const char *
faSectionName(uint32_t rel)
{
    static const char *const names[] = {
        "meta",
        "symbols",
        "reporting",
        "start",
        "succBegin",
        "succ",
        "startTableBegin",
        "startTable",
        "sodStarts",
        "allInputStarts",
        "classOf",
        "classRep",
        "dense.accept",
        "dense.reporting",
        "dense.allInputStarts",
        "dense.sodStarts",
        "dense.latchable",
        "dense.succBegin",
        "dense.succWordIdx",
        "dense.succWordMask",
        "dense.startBegin",
        "dense.startWordIdx",
        "dense.startWordMask",
        "dense.startSuccBegin",
        "dense.startSuccWordIdx",
        "dense.startSuccWordMask",
        "dfa.meta",
        "dfa.table",
        "dfa.reportBegin",
        "dfa.reportIds",
        "dfa.skipIndex",
        "dfa.skipBits",
    };
    static_assert(std::size(names) == store::kFaSectionCount,
                  "one name per FaSection id");
    return rel < store::kFaSectionCount ? names[rel] : "?";
}

/** Name of an Application section relative to its base. */
const char *
appSectionName(uint32_t rel)
{
    static const char *const names[] = {
        "meta",          "name",      "abbr",    "nfaNameBegin",
        "nfaNames",      "nfaStateBegin", "symbols", "start",
        "reporting",     "succBegin", "succ",
    };
    static_assert(std::size(names) == store::kAppSectionCount,
                  "one name per AppSection id");
    return rel < store::kAppSectionCount ? names[rel] : "?";
}

/** Human name of section @p id given the blob's artifact kind. */
std::string
sectionName(store::ArtifactKind kind, uint32_t id)
{
    using store::ArtifactKind;
    switch (kind) {
    case ArtifactKind::FlatAutomaton:
        return faSectionName(id);
    case ArtifactKind::Profile:
        if (id == store::kProfileMeta)
            return "meta";
        if (id == store::kProfileHotWords)
            return "hotWords";
        return "?";
    case ArtifactKind::Partition: {
        static const char *const root[] = {
            "?",
            "meta",
            "layers",
            "hotToOriginal",
            "intermediateTarget",
            "coldToOriginal",
            "originalToCold",
            "coldNfaToOriginal",
            "nfaBatch",
        };
        if (id >= store::kPartHotFaBase)
            return std::string("hot-fa.") +
                   faSectionName(id - store::kPartHotFaBase);
        if (id >= store::kPartColdAppBase)
            return std::string("cold-app.") +
                   appSectionName(id - store::kPartColdAppBase);
        if (id >= store::kPartHotAppBase)
            return std::string("hot-app.") +
                   appSectionName(id - store::kPartHotAppBase);
        if (id <= store::kPartNfaBatch)
            return root[id];
        return "?";
    }
    case ArtifactKind::Raw:
        return "-";
    }
    return "?";
}

/** Print a one-line summary of a DFA attachment at @p base, if any. */
void
printDfaSummary(const BlobView &blob, uint32_t base, const char *label)
{
    if (blob.findSection(base + store::kFaDfaMeta) == nullptr)
        return;
    const auto meta = blob.sectionAs<store::DfaMeta>(
        base + store::kFaDfaMeta);
    const store::SectionEntry *table =
        blob.findSection(base + store::kFaDfaTable);
    if (meta.size() != 1 || table == nullptr)
        return;
    const auto skip_bits =
        blob.sectionAs<uint64_t>(base + store::kFaDfaSkipBits);
    std::printf("  %s  %llu states x %llu classes, %llu table bytes, "
                "%llu report entries, %zu skippable state(s)\n",
                label, static_cast<unsigned long long>(meta[0].states),
                static_cast<unsigned long long>(meta[0].classes),
                static_cast<unsigned long long>(table->size),
                static_cast<unsigned long long>(meta[0].reportCount),
                skip_bits.size() / 4);
}

int
cmdInspect(const std::string &arg)
{
    const std::string path = resolveObject(arg);
    std::string error;
    std::shared_ptr<const BlobView> blob = BlobView::open(path, &error);
    if (!blob) {
        std::fprintf(stderr, "apstore: %s\n", error.c_str());
        return 1;
    }
    std::printf("%s\n  kind    %s\n  digest  %s\n  size    %zu bytes\n",
                path.c_str(), artifactKindName(blob->kind()),
                store::digestHex(blob->digest()).c_str(),
                blob->fileSize());
    printDfaSummary(*blob, 0, "dfa   ");
    printDfaSummary(*blob, store::kPartHotFaBase, "hot dfa");
    Table table({"Id", "Name", "ElemSize", "Offset", "Bytes", "Checksum"});
    for (const store::SectionEntry &e : blob->sections()) {
        table.addRow({std::to_string(e.id),
                      sectionName(blob->kind(), e.id),
                      std::to_string(e.elemSize),
                      std::to_string(e.offset), std::to_string(e.size),
                      store::digestHex(e.checksum)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdVerify()
{
    const ArtifactCache &cache = cacheOrDie();
    size_t ok = 0, bad = 0;
    for (const std::string &path : cache.listObjects()) {
        std::string error;
        if (BlobView::open(path, &error)) {
            ++ok;
        } else {
            ++bad;
            std::fprintf(stderr, "BAD  %s\n", error.c_str());
        }
    }
    std::printf("verified %zu object(s): %zu ok, %zu bad\n", ok + bad, ok,
                bad);
    return bad == 0 ? 0 : 1;
}

int
cmdGc(bool all)
{
    const ArtifactCache &cache = cacheOrDie();
    const ArtifactCache::SweepResult r = cache.gc(all);
    std::printf("scanned %zu object(s), removed %zu (%llu bytes, %zu "
                "invalid)\n",
                r.scanned, r.removed,
                static_cast<unsigned long long>(r.bytesRemoved),
                r.invalid);
    return 0;
}

int
cmdStats()
{
    const ArtifactCache &cache = cacheOrDie();

    // The same Snapshot type the in-process registry exports, so one
    // formatter serves SPARSEAP_STATS summaries, apstat and this tool.
    telemetry::Snapshot s;

    // Journal: one "store <kind> <digest> <bytes>" line per store.
    std::ifstream journal(cache.journalPath());
    uint64_t journal_lines = 0;
    uint64_t journal_bytes = 0;
    std::string line;
    while (std::getline(journal, line)) {
        ++journal_lines;
        std::istringstream iss(line);
        std::string op, kind, digest;
        uint64_t bytes = 0;
        if (iss >> op >> kind >> digest >> bytes && op == "store") {
            s.counters["journal.stores." + kind] += 1;
            journal_bytes += bytes;
        }
    }
    s.counters["journal.lines"] = journal_lines;
    s.counters["journal.bytes_stored"] = journal_bytes;

    // Object store: what is actually on disk right now (the journal is
    // append-only history; gc may have removed objects since).
    uint64_t object_count = 0;
    uint64_t object_bytes = 0;
    for (const std::string &path : cache.listObjects()) {
        ++object_count;
        std::error_code ec;
        const uint64_t bytes = std::filesystem::file_size(path, ec);
        if (!ec)
            object_bytes += bytes;
    }
    s.counters["objects.count"] = object_count;
    s.counters["objects.bytes"] = object_bytes;

    std::printf("cache %s\n", cache.dir().c_str());
    telemetry::printSnapshot(std::cout, s);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    if (cmd == "build")
        return cmdBuild(args);
    if (cmd == "ls")
        return cmdLs(!args.empty() && args[0] == "--json");
    if (cmd == "inspect")
        return args.size() == 1 ? cmdInspect(args[0]) : usage();
    if (cmd == "verify")
        return cmdVerify();
    if (cmd == "gc")
        return cmdGc(!args.empty() && args[0] == "--all");
    if (cmd == "stats")
        return cmdStats();
    return usage();
}
