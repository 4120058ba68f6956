/**
 * @file
 * Checkpointed profiling (the one-pass Table-I profiler): for every
 * registered workload, the profile snapshotted at each checkpoint must be
 * bit-identical to an independent profiling run over that prefix alone.
 * This is the correctness contract the per-app profile cache and the
 * prewarmProfiles() sweep rely on.
 */

#include <gtest/gtest.h>

#include "core/sparseap.h"

namespace sparseap {
namespace {

std::vector<size_t>
testCheckpoints(size_t n)
{
    std::vector<size_t> cps = {1, n / 100, n / 10, n / 2, n};
    for (size_t &c : cps)
        c = std::max<size_t>(1, std::min(c, n));
    std::sort(cps.begin(), cps.end());
    return cps;
}

TEST(CheckpointProfile, MatchesIndependentRunsOnAllWorkloads)
{
    for (const CatalogEntry &entry : appCatalog()) {
        SCOPED_TRACE(entry.abbr);
        const Workload w = generateWorkload(entry.abbr, 77, 3);
        Rng input_rng(4242);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, 8 * 1024, input_rng);
        const FlatAutomaton fa(w.app);

        const std::vector<size_t> cps = testCheckpoints(input.size());
        const std::vector<HotColdProfile> profs =
            profileApplication(fa, input, cps);
        ASSERT_EQ(profs.size(), cps.size());

        for (size_t i = 0; i < cps.size(); ++i) {
            const HotColdProfile solo = profileApplication(
                fa, std::span<const uint8_t>(input.data(), cps[i]));
            EXPECT_EQ(profs[i].hot, solo.hot)
                << "checkpoint " << cps[i] << " of " << input.size();
        }
    }
}

TEST(CheckpointProfile, DuplicateCheckpointsAllowed)
{
    const Workload w = generateWorkload("EM", 7, 3);
    Rng input_rng(7);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, 2 * 1024, input_rng);
    const FlatAutomaton fa(w.app);

    const size_t cps[] = {5, 5, 100, 100};
    const std::vector<HotColdProfile> profs = profileApplication(
        fa, input, std::span<const size_t>(cps, 4));
    ASSERT_EQ(profs.size(), 4u);
    EXPECT_EQ(profs[0].hot, profs[1].hot);
    EXPECT_EQ(profs[2].hot, profs[3].hot);
    EXPECT_EQ(profs[0].hot,
              profileApplication(
                  fa, std::span<const uint8_t>(input.data(), 5))
                  .hot);
}

TEST(CheckpointProfile, HotSetsAreMonotone)
{
    const Workload w = generateWorkload("Bro217", 3, 3);
    Rng input_rng(3);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, 4 * 1024, input_rng);
    const FlatAutomaton fa(w.app);

    const std::vector<size_t> cps = testCheckpoints(input.size());
    const std::vector<HotColdProfile> profs =
        profileApplication(fa, input, cps);
    for (size_t i = 1; i < profs.size(); ++i) {
        for (size_t g = 0; g < profs[i].hot.size(); ++g) {
            EXPECT_LE(profs[i - 1].hot[g], profs[i].hot[g])
                << "state " << g << " lost hotness between checkpoints "
                << cps[i - 1] << " and " << cps[i];
        }
    }
}

TEST(CheckpointProfile, AllCoreModesProduceIdenticalProfiles)
{
    // The dense profiling path (bit-OR accumulation, pinned or by a
    // dense core decision) must produce the exact hot sets the sparse
    // enable hooks record — on every registered workload.
    for (const CatalogEntry &entry : appCatalog()) {
        SCOPED_TRACE(entry.abbr);
        const Workload w = generateWorkload(entry.abbr, 77, 3);
        Rng input_rng(99);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, 4 * 1024, input_rng);
        const FlatAutomaton fa(w.app);

        const std::vector<size_t> cps = testCheckpoints(input.size());
        const std::vector<HotColdProfile> sparse =
            profileApplication(fa, input, cps, EngineMode::Sparse);
        const std::vector<HotColdProfile> dense =
            profileApplication(fa, input, cps, EngineMode::Dense);
        const std::vector<HotColdProfile> automode =
            profileApplication(fa, input, cps, EngineMode::Auto);
        for (size_t i = 0; i < cps.size(); ++i) {
            EXPECT_EQ(sparse[i].hot, dense[i].hot)
                << "sparse vs dense at checkpoint " << cps[i];
            EXPECT_EQ(sparse[i].hot, automode[i].hot)
                << "sparse vs auto at checkpoint " << cps[i];
        }
    }
}

TEST(CheckpointProfile, PrewarmedProfilesMatchOnDemandProfiles)
{
    // LoadedApp::prewarmProfiles must populate exactly the entries that
    // on-demand profile() calls would compute.
    LoadedApp app;
    app.entry = findApp("Rg05");
    app.workload = generateWorkload("Rg05", 11, 3);
    Rng input_rng(11);
    app.input = synthesizeInput(app.workload.input, 8 * 1024, input_rng);

    LoadedApp fresh;
    fresh.entry = app.entry;
    fresh.workload = generateWorkload("Rg05", 11, 3);
    Rng input_rng2(11);
    fresh.input =
        synthesizeInput(fresh.workload.input, 8 * 1024, input_rng2);

    const double fracs[] = {0.001, 0.01};
    app.prewarmProfiles(fracs);
    for (double f : fracs) {
        const size_t len =
            profilePrefixLength(app.execOptions(f, 64), app.input.size());
        EXPECT_EQ(app.profile(len).hot, fresh.profile(len).hot)
            << "fraction " << f;
    }
}

} // namespace
} // namespace sparseap
