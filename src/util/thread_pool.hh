/**
 * @file
 * A small persistent worker pool with a deterministic parallel-for.
 *
 * The partition-search engines fan their per-state transition loops out
 * over this pool. Determinism is a hard requirement there — a plan must
 * not depend on thread count or scheduling — so the primitives are
 * shaped accordingly:
 *
 *  - parallelFor(begin, end, grain, body) splits [begin, end) into
 *    fixed contiguous chunks of `grain` iterations. Chunk boundaries
 *    depend only on (begin, end, grain), never on the thread count, so
 *    any per-chunk state a caller accumulates is reproducible.
 *  - parallelReduce(...) maps every chunk to a partial value and
 *    combines the partials serially in ascending chunk order, which
 *    makes even non-associative (floating-point) reductions exact and
 *    repeatable.
 *
 * The caller's thread participates in the work, so a pool constructed
 * with 0 extra workers degrades to a plain serial loop with no
 * synchronization overhead — important on single-core hosts where
 * spawning threads would only slow the search down.
 *
 * Composition rules (the serving tier runs whole request groups as
 * pool bodies, and those bodies call the search engines, which use the
 * pool themselves):
 *
 *  - Nested: a body running on pool P that calls P.parallelFor again
 *    executes the nested loop inline on its own thread, chunk by chunk
 *    in ascending order. Because the chunk grid is fixed, the nested
 *    results are bit-identical to a top-level run — the nested caller
 *    just doesn't recruit help.
 *  - One chunk: a top-level call whose range fits in one chunk
 *    (end - begin <= grain) also runs inline on the caller, but
 *    without marking the pool active. A parallelFor nested inside
 *    such a body is therefore a top-level call and still fans out
 *    over the workers.
 *  - Concurrent: top-level parallelFor calls from different threads
 *    serialize on an internal submission mutex (one batch in flight at
 *    a time). Safe, deterministic per call site, but the batches run
 *    back to back — concurrency should come from one outer
 *    parallelFor, not from racing submitters.
 *  - Per-chunk slots: a body accumulates into locals and writes its
 *    chunk's slot once, at the end — adjacent slots share cache lines,
 *    so a store per iteration bounces them between threads.
 */

#ifndef HYPAR_UTIL_THREAD_POOL_HH
#define HYPAR_UTIL_THREAD_POOL_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hypar::util {

/** Persistent worker pool; see the file comment for the guarantees. */
class ThreadPool
{
  public:
    /**
     * Create a pool with `workers` background threads. 0 means "serial":
     * every parallelFor runs inline on the calling thread.
     */
    explicit ThreadPool(std::size_t workers);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads that execute work, including the caller. */
    std::size_t parallelism() const { return workers_.size() + 1; }

    /**
     * The library's shared chunking convention for fanning `items`
     * independent work units over this pool: ~4 chunks per thread for
     * load balancing, never below one item. Callers that accumulate
     * order-sensitive per-chunk state must NOT use this (it varies with
     * the pool size); it is only for loops whose per-item results are
     * written independently by index, where any chunk grid yields
     * bit-identical output.
     */
    std::size_t grainFor(std::size_t items) const
    {
        return std::max<std::size_t>(1, items / (4 * parallelism()));
    }

    /**
     * Run body(chunk_begin, chunk_end) for fixed chunks of `grain`
     * iterations covering [begin, end). Chunks never overlap and their
     * boundaries are independent of the thread count. The first
     * exception thrown by a body is rethrown on the calling thread.
     * Reentrant and thread-safe per the file comment: a body calling
     * back into the same pool runs its nested loop inline; top-level
     * calls from several threads serialize on submit_mu_.
     */
    void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>
                         &body);

    /**
     * Deterministic reduction: partials[i] = map(chunk_i begin, end) for
     * the same fixed chunk grid as parallelFor, combined left-to-right
     * with `combine` on the calling thread. The result is bit-identical
     * for every thread count, including pure serial execution.
     */
    template <typename T, typename Map, typename Combine>
    T parallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
                     T init, const Map &map, const Combine &combine)
    {
        if (end <= begin)
            return init;
        if (grain == 0)
            grain = 1;
        const std::size_t chunks = (end - begin + grain - 1) / grain;
        std::vector<T> partials(chunks);
        parallelFor(begin, end, grain,
                    [&](std::size_t b, std::size_t e) {
                        partials[(b - begin) / grain] = map(b, e);
                    });
        T acc = init;
        for (const T &p : partials)
            acc = combine(acc, p);
        return acc;
    }

    /**
     * Process-wide pool sized to the hardware (hardware_concurrency - 1
     * workers, clamped to [0, 15]). Lazily constructed, never destroyed
     * before process exit. Front ends hand it in; the library's search
     * and evaluation code runs on the pool it is given and never looks
     * this one up itself (headers may name it as a default argument).
     */
    static ThreadPool &global();

  private:
    void workerLoop();
    void runChunks();

    std::vector<std::thread> workers_;

    /** Held for the whole lifetime of a top-level batch so concurrent
     *  submitters (the serving tier's request groups) line up instead
     *  of corrupting the single-batch state below. */
    std::mutex submit_mu_;

    std::mutex mu_;
    std::condition_variable work_cv_; //!< signals a new batch / shutdown
    std::condition_variable done_cv_; //!< signals batch completion

    // State of the (single) in-flight batch, guarded by mu_.
    const std::function<void(std::size_t, std::size_t)> *body_ = nullptr;
    std::size_t next_ = 0;
    std::size_t end_ = 0;
    std::size_t grain_ = 1;
    std::size_t busy_ = 0;     //!< workers currently inside body()
    std::uint64_t epoch_ = 0;  //!< bumped per batch so workers wake once
    std::exception_ptr error_; //!< first body exception, if any
    bool stop_ = false;
};

} // namespace hypar::util

#endif // HYPAR_UTIL_THREAD_POOL_HH
