/**
 * @file
 * The benchmark's three closed-loop workloads and their seeded request
 * generators.
 *
 * A workload is a client count, a warm-up (the admission batches that
 * bring the server into the workload's regime before timing starts),
 * and an endless request stream. Every input comes from one splitmix64
 * stream seeded by `--seed`, so a seed fixes the exact request lines
 * the server receives; only how many of them a run gets through
 * depends on speed.
 *
 *  - plan_hit: 4 clients, `plan` with strategy optimal at H = 10, drawn
 *    uniformly from 64 contexts (8 zoo chains x 8 batch sizes) that the
 *    warm-up pre-fills in the on-disk cache. Every timed request hits.
 *  - plan_search: 1 client, `plan` with strategy optimal at H = 12 or
 *    13 (A* under kAuto) on a never-seen (model, levels, batch)
 *    context: a cache miss, a session build, a search and a cache write.
 *  - eval_sweep: 1 client, --no-cache, 8 warm H = 8 contexts (two of
 *    each of 4 chains: htree synchronous, torus overlapped). Request k
 *    goes to chain k mod 4 and cycles every 4 requests through
 *    single-step `evaluate`, `evaluate` with 64 steps, and `sweep`. One
 *    request per batch, so the server's evaluateBatch always gets one
 *    plan and the work stays on one server thread.
 */

#ifndef SERVEBENCH_WORKLOADS_HH
#define SERVEBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/strategies.hh"
#include "sim/evaluator.hh"

namespace servebench {

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** One generated request: the fields the workloads use, nothing more. */
struct Request
{
    std::string op; //!< plan | evaluate | sweep | stats
    std::string id;
    std::string model;
    std::size_t levels = 0;
    std::size_t batch = 0;
    std::string topology = "htree";
    bool overlap = false;
    std::string strategy;          //!< empty when `plan` is explicit
    std::vector<std::string> plan; //!< evaluate: one bit string per level
    std::size_t steps = 1;         //!< evaluate: steady-state steps
    std::size_t level = 0;         //!< sweep: the swept level
    /** The `cache` value the response must carry ("" = no such field). */
    std::string expectCache;

    /** The NDJSON request line (no trailing newline). */
    std::string line() const;
};

using Batch = std::vector<Request>;

/** The SimConfig the server builds for `req` (mirrors its defaults). */
hypar::sim::SimConfig configFor(const Request &req);

/** The named strategy of `req.strategy` (hypar | dp | mp | owt). */
hypar::core::Strategy strategyFor(const std::string &name);

/** A plan from one bit string per level ('1' = mp), as in requests and
 *  responses. */
hypar::core::HierarchicalPlan
planFromBits(const std::vector<std::string> &levels);

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** One of the benchmark's workloads, with its seeded request stream. */
class Workload
{
  public:
    enum class Kind { kPlanHit, kPlanSearch, kEvalSweep };

    /** Fatal on an unknown workload name. */
    Workload(const std::string &name, std::uint64_t seed);

    const std::string &name() const { return name_; }
    Kind kind() const { return kind_; }

    /** Logical clients: one outstanding request each. */
    std::size_t clients() const;

    /** Whether the server runs with --no-cache. */
    bool noCache() const { return kind_ == Kind::kEvalSweep; }

    /** The percentile latency_tail_ms reports: p90 on plan_search (a few
     *  hundred requests per segment), p99 elsewhere. */
    double tailPercentile() const
    {
        return kind_ == Kind::kPlanSearch ? 90.0 : 99.0;
    }

    /** Equal windows each server's timed phase is cut into (the end-to-end
     *  metrics are medians over windows): 6 where a window still holds
     *  thousands of requests, 1 on plan_search, whose p90 needs the
     *  whole segment's few hundred. */
    std::size_t windowsPerSegment() const
    {
        return kind_ == Kind::kPlanSearch ? 1 : 6;
    }

    /** Timed requests the traced run replays (a fixed prefix, so the
     *  traced counts repeat exactly for a seed). */
    std::size_t traceRequests() const;

    /** Admission batches that bring a fresh server into the regime. */
    std::vector<Batch> warmup() const;

    /** The next admission batch: one request per client. */
    Batch nextBatch();

  private:
    Request planHitRequest();
    Request planSearchRequest();
    Request evalSweepRequest();
    Request evalContext(std::size_t chain, std::size_t context) const;
    std::string nextId(std::size_t client);

    std::string name_;
    Kind kind_;
    Rng rng_;
    std::vector<std::size_t> sent_; //!< per-client request counter
    /** eval_sweep: weighted layers of each client's chain. */
    std::vector<std::size_t> layers_;
    /** plan_search: the shuffled (model, levels) deck being dealt and
     *  every context already used. */
    std::vector<std::pair<std::string, std::size_t>> deck_;
    std::set<std::tuple<std::string, std::size_t, std::size_t>> used_;
};

} // namespace servebench

#endif // SERVEBENCH_WORKLOADS_HH
