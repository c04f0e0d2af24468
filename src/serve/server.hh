/**
 * @file
 * The hyparc serving loop: newline-delimited JSON requests in, one
 * JSON response line per request, in request order.
 *
 * Protocol (the full client-facing contract lives in docs/SERVING.md;
 * tools/check_docs.py cross-checks that document against
 * kRequestFields below, so schema drift fails the hygiene gate):
 *
 *  - One request object per input line. A *blank line or EOF* closes
 *    the current admission batch: every buffered request is executed
 *    and its response line emitted, responses in the exact order the
 *    requests arrived.
 *  - Batched admission: all `evaluate` requests of a batch that share
 *    a context hash are coalesced into one Evaluator::evaluateBatch
 *    call fanned over the process thread pool — the serving-tier
 *    counterpart of the sweep fast path. Results are written back by
 *    request index, so coalescing is invisible except for latency
 *    (and the `batched` count in the response, exposed for tests).
 *  - Pipeline: processBatch runs three passes.
 *     1. Admission, in parallel over a util::ThreadPool: parse,
 *        validate, build the network and config, canonicalize the
 *        context once (serve::ContextKey). A `plan`/`sweep` also
 *        derives its plan/sweep hash and probes serve::PlanCache; a
 *        hit is rendered into its slot there. A serial fold then keeps
 *        the hits that come before the batch's first control op
 *        (`stats`/`evict`/`shutdown`), counting them and their
 *        latency; those requests are done and never touch a session.
 *     2. Session reservation, serial and in request order, for the
 *        requests still pending (LRU motion is therefore identical
 *        for any thread count).
 *     3. Execution in segments between control ops: each segment's
 *        context-hash groups fan out over the pool (requests sharing
 *        a warm session serialize on its mutex), then counters fold
 *        in request order. A batch of only admission hits skips it.
 *    Responses are written strictly by request index, and every
 *    response byte is identical to serial execution — pinned by
 *    tests/test_serve_concurrent.cc. See docs/SERVING.md
 *    "Concurrency & memory budget".
 *  - Warm state: sessions (network + SimConfig + Evaluator) are
 *    content-addressed by serve::contextHash and kept in an LRU
 *    (serve::SessionRegistry); `plan` and `sweep` results are
 *    additionally persisted in the on-disk serve::PlanCache keyed by
 *    serve::planHash / serve::sweepHash, behind an in-memory memo of
 *    decoded results, and a cache hit short-circuits the search with a
 *    bit-identical result.
 *  - A malformed request (bad JSON, unknown field, bad value, an
 *    over-long line) yields an `"ok": false` response *line* in its
 *    slot; the server never dies on client input. A cache write that
 *    fails (unwritable cache directory, full disk) is not an error
 *    either: the response carries the computed result with
 *    `"cache": "bypass"` and `stats` counts it in
 *    `cache.store_failures`.
 *
 * Ops: "plan", "evaluate", "sweep", "stats", "evict", "shutdown".
 */

#ifndef HYPAR_SERVE_SERVER_HH
#define HYPAR_SERVE_SERVER_HH

#include <array>
#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <string>

#include "serve/plan_cache.hh"
#include "serve/session.hh"
#include "util/latency_histogram.hh"

namespace hypar::util {
class ThreadPool;
}

namespace hypar::serve {

/**
 * Every key a request object may carry. Unknown keys are rejected
 * (strict schema — a typoed "stratgy" must not silently plan with the
 * default). tools/check_docs.py parses this initializer and checks it
 * 1:1 against the schema table in docs/SERVING.md.
 */
inline constexpr const char *kRequestFields[] = {
    "op",        // required: plan | evaluate | sweep | stats | evict |
                 //           shutdown
    "id",        // optional string, echoed back verbatim
    "model",     // zoo model name (exactly one of model/spec)
    "spec",      // inline network spec text
    "levels",    // hierarchy levels H (default 4)
    "batch",     // mini-batch size (default 256)
    "topology",  // htree | torus | mesh (default htree)
    "strategy",  // hypar | dp | mp | owt | optimal (default hypar)
    "overlap",   // overlap gradient reductions (default false)
    "faults",    // {"nodes": [[id, scale]...], "links": [[id, scale]...]}
    "plan",      // evaluate: explicit plan, one bit string per level
    "level",     // sweep: hierarchy level whose layer masks to sweep
    "steps",     // evaluate: steady-state cadence over N steps
};

/**
 * Largest `steps` an evaluate request may ask for. A steady-state
 * evaluate replays the step's task list `steps` times, so the cap
 * bounds per-request work; larger values are rejected in-band.
 */
inline constexpr std::size_t kMaxSteps = 100000;

/**
 * Longest request line run() buffers, in bytes (excluding the
 * newline). Past it run() stops buffering, discards the rest of the
 * line, and the request answers in-band with an error; processBatch
 * rejects any longer line it is handed the same way.
 */
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/** Server-wide knobs (from `hyparc serve` flags). */
struct ServeOptions
{
    std::filesystem::path cacheDir; //!< empty = PlanCache::defaultDir()
    bool noCache = false;           //!< bypass reads AND writes
    /** Warm-session LRU capacity (`--max-sessions`, >= 1): size this
     *  to the serving mix so distinct contexts don't thrash warm
     *  Evaluators. */
    std::size_t maxSessions = SessionRegistry::kDefaultCapacity;
    /** Warm-session byte budget (`--max-session-bytes`, 0 =
     *  unlimited): evicts least-recently-acquired sessions by
     *  approximate resident size (Session::approxBytes) at the end of
     *  each batch, never below one session. */
    std::size_t maxSessionBytes = 0;
    /** Pool the batch executor fans request groups over; nullptr =
     *  util::ThreadPool::global(). Tests and benches inject fixed-size
     *  pools to pin the serial/concurrent differential. */
    util::ThreadPool *pool = nullptr;
};

/** Serving counters reported by the `stats` op. */
struct ServeStats
{
    std::size_t requests = 0;  //!< responses emitted (including errors)
    std::size_t errors = 0;    //!< "ok": false responses
    std::size_t batches = 0;   //!< admission batches flushed
    std::size_t coalesced = 0; //!< evaluate requests served via a
                               //!< shared evaluateBatch call
};

/** One long-lived serving loop over an input/output stream pair. */
class Server
{
  public:
    explicit Server(const ServeOptions &options);

    /**
     * Read requests from `in` until EOF or a `shutdown` op, writing
     * one response line per request to `out` (flushed per batch).
     * Returns 0 (the protocol reports per-request errors in-band).
     */
    int run(std::istream &in, std::ostream &out);

    /** Process one already-framed admission batch (exposed for
     *  tests); `lines` holds one request line per element. Emits one
     *  response line per request. Returns false after `shutdown`. */
    bool processBatch(const std::vector<std::string> &lines,
                      std::ostream &out);

    PlanCache &cache() { return cache_; }
    SessionRegistry &sessions() { return sessions_; }
    const ServeStats &stats() const { return stats_; }

    /** Ops with a latency histogram, in kOps/stats-response order. */
    static constexpr std::array<const char *, 6> kOps = {
        "plan", "evaluate", "sweep", "stats", "evict", "shutdown"};

    /** Per-op latency histogram (folded at batch serial points; the
     *  `stats` op reports p50/p95/p99 from these). */
    const util::LatencyHistogram &latency(std::size_t op) const
    {
        return latency_[op];
    }

  private:
    PlanCache cache_;
    SessionRegistry sessions_;
    ServeStats stats_;
    util::ThreadPool *pool_;
    std::array<util::LatencyHistogram, kOps.size()> latency_;
};

/** Fields allowed per op, validated before execution. */
bool requestFieldKnown(const std::string &key);

} // namespace hypar::serve

#endif // HYPAR_SERVE_SERVER_HH
