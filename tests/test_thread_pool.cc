/** @file Tests for the thread pool and parallelFor helper. */

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace sparseap {
namespace {

TEST(ThreadPool, SubmitRunsTasks)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    std::mutex m;
    std::condition_variable cv;
    for (int i = 0; i < 10; ++i) {
        // Count and notify under the mutex: the waiter can return (and
        // destroy m and cv) as soon as it sees 10, so no task may touch
        // them after the count it publishes.
        pool.submit([&] {
            std::lock_guard<std::mutex> lock(m);
            if (count.fetch_add(1) + 1 == 10)
                cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return count.load() == 10; });
    EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (size_t jobs : {size_t{1}, size_t{2}, size_t{4}, size_t{13}}) {
        const size_t n = 257;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(jobs, n, [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(ParallelFor, PerIndexSlotsGiveDeterministicResults)
{
    const size_t n = 1000;
    std::vector<uint64_t> serial(n), parallel(n);
    auto work = [](size_t i) {
        uint64_t h = i * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
        return h;
    };
    parallelFor(1, n, [&](size_t i) { serial[i] = work(i); });
    parallelFor(8, n, [&](size_t i) { parallel[i] = work(i); });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, EmptyAndSingleRanges)
{
    int runs = 0;
    parallelFor(4, 0, [&](size_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    parallelFor(4, 1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(4, 100,
                    [](size_t i) {
                        if (i == 37)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ParallelFor, MoreJobsThanHardwareStillCompletes)
{
    std::atomic<size_t> sum{0};
    parallelFor(64, 200, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 200u * 199u / 2);
}

} // namespace
} // namespace sparseap
