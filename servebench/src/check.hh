/**
 * @file
 * The benchmark's output check.
 *
 * Every response is checked inline (cheaply, so the closed loop is not
 * slowed): it must echo the request's `id` and `op` with `"ok":true`,
 * and carry the `cache` outcome its workload promises ("hit" on
 * plan_hit, "miss" on plan_search, "bypass" for sweeps under
 * --no-cache), so a workload that drifts out of its regime fails
 * instead of reporting fast numbers.
 *
 * After the timed phase, finish() re-derives results in-process through
 * the library's public API and compares the %.17g renderings with the
 * response bytes exactly:
 *
 *  - every distinct `plan` response: its context and plan hashes, and
 *    `comm_bytes` against CommModel::planBytes of the returned plan;
 *  - a seeded sample of responses, recomputed in full: the searched
 *    plan, `comm_bytes` and search statistics for `plan`; the
 *    `metrics` for `evaluate`; `evaluated`, `best_mask`, `best_bits`
 *    and `metrics` for `sweep`.
 */

#ifndef SERVEBENCH_CHECK_HH
#define SERVEBENCH_CHECK_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/evaluator.hh"
#include "workloads.hh"

namespace servebench {

class OutputCheck
{
  public:
    /** `cap` responses, drawn uniformly over the whole run by seeded
     *  reservoir sampling, are recomputed in full. */
    OutputCheck(std::uint64_t seed, std::size_t cap);

    /** Inline check of one response line; false when it fails. Keeps
     *  what finish() needs. */
    bool inspect(const Request &req, const std::string &line);

    /** Recompute the kept responses; returns how many failed, each one
     *  described on `log`. */
    std::size_t finish(std::ostream &log);

    /** Responses recomputed in full by finish(). */
    std::size_t sampled() const { return sample_.size(); }

  private:
    struct Kept
    {
        Request req;
        std::string line;
        bool full = false; //!< recompute everything, not just comm_bytes
    };

    /** Empty when `kept` is right, else what is wrong. */
    std::string verify(const Kept &kept);
    std::string verifyPlan(const Kept &kept);
    std::string verifyEvaluate(const Kept &kept);
    std::string verifySweep(const Kept &kept);
    const hypar::sim::Evaluator &evaluatorFor(const Request &req);

    Rng rng_;
    std::size_t cap_;
    std::size_t seen_ = 0;
    std::vector<Kept> sample_; //!< the reservoir: recomputed in full
    std::vector<Kept> kept_;   //!< distinct plan bodies: hashes, comm_bytes
    std::unordered_set<std::string> planBodies_;
    std::map<std::string, std::unique_ptr<hypar::sim::Evaluator>>
        evaluators_;
};

} // namespace servebench

#endif // SERVEBENCH_CHECK_HH
