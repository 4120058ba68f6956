#include "partition/hotcold.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/vec.h"
#include "common/word_vector.h"
#include "sim/dense_core.h"
#include "sim/exec_core.h"
#include "telemetry/trace.h"

namespace sparseap {

size_t
HotColdProfile::hotCount() const
{
    return static_cast<size_t>(std::count(hot.begin(), hot.end(), true));
}

HotColdProfile
profileApplication(const FlatAutomaton &fa, std::span<const uint8_t> input)
{
    const size_t len = input.size();
    return std::move(
        profileApplication(fa, input, std::span<const size_t>(&len, 1))
            .front());
}

std::vector<HotColdProfile>
profileApplication(const FlatAutomaton &fa, std::span<const uint8_t> input,
                   std::span<const size_t> checkpoints)
{
    return profileApplication(fa, input, checkpoints,
                              globalOptions().engineMode);
}

std::vector<HotColdProfile>
profileApplication(const FlatAutomaton &fa, std::span<const uint8_t> input,
                   std::span<const size_t> checkpoints, EngineMode mode)
{
    SPARSEAP_PHASE("profile");
    std::vector<HotColdProfile> profiles;
    profiles.reserve(checkpoints.size());
    if (checkpoints.empty())
        return profiles;
    for (size_t c = 0; c < checkpoints.size(); ++c) {
        SPARSEAP_ASSERT(checkpoints[c] <= input.size(),
                        "profiling checkpoint ", checkpoints[c],
                        " exceeds the input length ", input.size());
        SPARSEAP_ASSERT(c == 0 || checkpoints[c - 1] <= checkpoints[c],
                        "profiling checkpoints must be sorted ascending");
    }
    const size_t longest = checkpoints.back();

    // The universality alphabet covers the whole profiled prefix; for
    // earlier checkpoints it is a superset of the bytes actually
    // consumed, which only makes the latching optimization more
    // conservative — the enabled-set trace, and hence every snapshot,
    // is unchanged.
    const std::span<const uint8_t> prefix = input.subspan(0, longest);
    const Bitset256 alphabet = ExecCore::distinctBytes(prefix);

    // Run dense from symbol 0 when forced, or when the automaton's
    // core decision (made from this profiling prefix if it is the
    // first) is dense.
    bool go_dense = mode == EngineMode::Dense;
    if (mode == EngineMode::Auto) {
        const std::optional<CoreDecision> d =
            fa.decideCore(prefix, alphabet);
        go_dense = d && d->dense;
    }

    HotStateProfiler profiler(fa.size());
    profiler.markStarts(fa);
    size_t next = 0;

    if (go_dense) {
        // The profiler holds the starts; from there on hotness is
        // accumulated by ORing the enabled bit vector after each step —
        // the same "enabled at least once" set as the sparse core's
        // per-state hooks, one word sweep per cycle (this is what lets
        // dense-heavy automata profile at dense-core speed).
        DenseCore dense(fa);
        dense.reset(/*install_starts=*/true);

        const size_t words = wordsForBits(fa.size());
        WordVector hot(words, 0);
        auto snapshotDense = [&](size_t j) {
            if (next < checkpoints.size() && checkpoints[next] == j) {
                // Latched states leave the dynamic enabled vector, but
                // each was enabled on the cycle it latched; the
                // permanent set is monotone, so folding it in at
                // checkpoint time reconstructs "enabled at least once".
                const std::span<const uint64_t> perm =
                    dense.permanentWords();
                simd::ops().orInto(hot.data(), perm.data(), words);
            }
            while (next < checkpoints.size() && checkpoints[next] == j) {
                HotColdProfile p;
                p.hot = profiler.hotSet();
                for (size_t w = 0; w < words; ++w) {
                    uint64_t bits = hot[w];
                    while (bits != 0) {
                        const unsigned b = static_cast<unsigned>(
                            __builtin_ctzll(bits));
                        p.hot[w * 64 + b] = true;
                        bits &= bits - 1;
                    }
                }
                profiles.push_back(std::move(p));
                ++next;
            }
        };
        for (size_t i = 0; i < longest; ++i) {
            snapshotDense(i);
            dense.step(input[i], i, nullptr);
            // Accumulate with the same live-fraction crossover as
            // step(): a sparse enabled set ORs only the words its
            // summary names, a dense one takes the full-width vector
            // sweep — so the per-cycle profiling cost tracks the live
            // region like the core itself.
            const std::span<const uint64_t> enabled = dense.enabledWords();
            const std::span<const uint64_t> sum = dense.enabledSummary();
            const simd::Ops &ops = simd::ops();
            const size_t live_words = static_cast<size_t>(
                ops.popcount(sum.data(), sum.size()));
            if (live_words * DenseCore::kSkipDivisor < words) {
                forEachSetBit(sum,
                              [&](size_t w) { hot[w] |= enabled[w]; });
            } else {
                ops.orInto(hot.data(), enabled.data(), words);
            }
        }
        snapshotDense(longest);
        return profiles;
    }

    // The sparse core's per-state enable hooks feed the profiler.
    ExecCore core(fa);
    core.reset(alphabet, &profiler, /*install_starts=*/true);
    auto snapshotSparse = [&](size_t i) {
        while (next < checkpoints.size() && checkpoints[next] == i) {
            HotColdProfile p;
            p.hot = profiler.hotSet();
            profiles.push_back(std::move(p));
            ++next;
        }
    };
    for (size_t i = 0; i < longest; ++i) {
        snapshotSparse(i);
        core.step(input[i], i, nullptr);
    }
    snapshotSparse(longest);
    return profiles;
}

PartitionLayers
chooseLayers(const AppTopology &topo, const HotColdProfile &profile)
{
    const Application &app = topo.app();
    SPARSEAP_ASSERT(profile.hot.size() == app.totalStates(),
                    "profile size ", profile.hot.size(),
                    " != total states ", app.totalStates());
    PartitionLayers layers;
    layers.k.assign(app.nfaCount(), 1);
    for (uint32_t u = 0; u < app.nfaCount(); ++u) {
        const Topology &t = topo.nfa(u);
        const GlobalStateId base = app.nfaOffset(u);
        uint32_t k = 1;
        for (StateId s = 0; s < app.nfa(u).size(); ++s) {
            if (profile.hot[base + s])
                k = std::max(k, t.order[s]);
        }
        layers.k[u] = k;
    }
    return layers;
}

size_t
predictedHotCount(const AppTopology &topo, const PartitionLayers &layers)
{
    const Application &app = topo.app();
    size_t n = 0;
    for (uint32_t u = 0; u < app.nfaCount(); ++u) {
        const Topology &t = topo.nfa(u);
        for (StateId s = 0; s < app.nfa(u).size(); ++s)
            n += t.order[s] <= layers.k[u] ? 1 : 0;
    }
    return n;
}

std::vector<bool>
layersToPredictedHot(const AppTopology &topo, const PartitionLayers &layers)
{
    const Application &app = topo.app();
    std::vector<bool> hot(app.totalStates(), false);
    for (uint32_t u = 0; u < app.nfaCount(); ++u) {
        const Topology &t = topo.nfa(u);
        const GlobalStateId base = app.nfaOffset(u);
        for (StateId s = 0; s < app.nfa(u).size(); ++s)
            hot[base + s] = t.order[s] <= layers.k[u];
    }
    return hot;
}

} // namespace sparseap
