/**
 * @file
 * Unit tests for util::ThreadPool: coverage, determinism of the fixed
 * chunk grid, exception propagation, and the serial degradation path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

using hypar::util::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (std::size_t workers : {0u, 1u, 3u}) {
        ThreadPool pool(workers);
        for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(0, n, 13, [&](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    hits[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
    }
}

TEST(ThreadPool, ChunkGridDependsOnlyOnGrain)
{
    // The chunk boundaries must be the same for every worker count —
    // that is what makes per-chunk state deterministic.
    auto boundaries = [](std::size_t workers) {
        ThreadPool pool(workers);
        std::vector<std::pair<std::size_t, std::size_t>> chunks(100);
        pool.parallelFor(5, 1000, 10,
                         [&](std::size_t b, std::size_t e) {
                             chunks[(b - 5) / 10] = {b, e};
                         });
        return chunks;
    };
    const auto serial = boundaries(0);
    EXPECT_EQ(serial, boundaries(2));
    EXPECT_EQ(serial, boundaries(5));
    for (std::size_t c = 0; c + 1 < serial.size(); ++c)
        EXPECT_EQ(serial[c].second, serial[c + 1].first);
    EXPECT_EQ(serial.front().first, 5u);
    EXPECT_EQ(serial.back().second, 1000u);
}

TEST(ThreadPool, ReduceIsBitIdenticalAcrossThreadCounts)
{
    // Non-associative floating-point reduction: combining partials in
    // chunk order must give the same bits for any parallelism.
    std::vector<double> data(10000);
    double v = 1.0;
    for (auto &x : data) {
        x = v;
        v *= 1.0000001;
    }
    auto sum = [&](std::size_t workers) {
        ThreadPool pool(workers);
        return pool.parallelReduce(
            0, data.size(), 37, 0.0,
            [&](std::size_t b, std::size_t e) {
                double s = 0.0;
                for (std::size_t i = b; i < e; ++i)
                    s += data[i];
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double serial = sum(0);
    EXPECT_EQ(serial, sum(1));
    EXPECT_EQ(serial, sum(4));
}

TEST(ThreadPool, PropagatesBodyExceptions)
{
    for (std::size_t workers : {0u, 2u}) {
        ThreadPool pool(workers);
        EXPECT_THROW(
            pool.parallelFor(0, 100, 5,
                             [&](std::size_t b, std::size_t) {
                                 if (b >= 50)
                                     throw std::runtime_error("boom");
                             }),
            std::runtime_error);
        // The pool must stay usable after a failed batch.
        std::atomic<int> count{0};
        pool.parallelFor(0, 10, 1,
                         [&](std::size_t, std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 10);
    }
}

TEST(ThreadPool, GlobalPoolIsUsable)
{
    auto &pool = ThreadPool::global();
    EXPECT_GE(pool.parallelism(), 1u);
    std::atomic<long> sum{0};
    pool.parallelFor(1, 101, 8, [&](std::size_t b, std::size_t e) {
        long s = 0;
        for (std::size_t i = b; i < e; ++i)
            s += static_cast<long>(i);
        sum += s;
    });
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, NestedCallsOnTheSamePoolRunInline)
{
    // A body that re-enters its own pool must not deadlock waiting for
    // workers it is itself occupying: nested calls run inline, and the
    // fixed chunk grid keeps the result bit-identical either way.
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(64);
    pool.parallelFor(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
        for (std::size_t o = ob; o < oe; ++o)
            pool.parallelFor(0, 8, 2,
                             [&](std::size_t b, std::size_t e) {
                                 for (std::size_t i = b; i < e; ++i)
                                     hits[o * 8 + i].fetch_add(1);
                             });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;

    // A *different* pool inside the body is not nested and keeps its
    // own parallelism.
    ThreadPool outer(2);
    ThreadPool inner(2);
    std::atomic<int> count{0};
    outer.parallelFor(0, 4, 1, [&](std::size_t, std::size_t) {
        inner.parallelFor(0, 4, 1,
                          [&](std::size_t, std::size_t) { ++count; });
    });
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ConcurrentTopLevelSubmissionsSerialize)
{
    // Two threads submitting to the same pool at once (the serving
    // tier's request groups do this) must both complete with full
    // coverage — the submission mutex lines the batches up.
    ThreadPool shared(3);
    ThreadPool driver(4);
    std::vector<std::atomic<int>> hits(4 * 100);
    driver.parallelFor(0, 4, 1, [&](std::size_t tb, std::size_t te) {
        for (std::size_t t = tb; t < te; ++t)
            shared.parallelFor(0, 100, 7,
                               [&](std::size_t b, std::size_t e) {
                                   for (std::size_t i = b; i < e; ++i)
                                       hits[t * 100 + i].fetch_add(1);
                               });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, OneChunkCallRunsInlineAndLeavesNestedLoopsParallel)
{
    // A top-level call whose range fits in one chunk runs its body on
    // the calling thread without marking the pool active, so a loop
    // nested inside that body is a top-level call and still fans out.
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    bool overlapped = false;
    pool.parallelFor(0, 4, 4, [&](std::size_t, std::size_t) {
        ran_on = std::this_thread::get_id();
        // Two one-item chunks that each wait for the other to start:
        // they meet only if a second thread runs one of them. An
        // inline walk times out instead of hanging.
        pool.parallelFor(0, 2, 1, [&](std::size_t, std::size_t) {
            std::unique_lock<std::mutex> lock(mu);
            ++started;
            cv.notify_all();
            if (cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return started == 2; }))
                overlapped = true;
        });
    });
    EXPECT_EQ(ran_on, caller);
    EXPECT_TRUE(overlapped);
}
