/**
 * @file
 * Robust planning over a fault distribution.
 *
 * Re-planning (sim::Evaluator with SimConfig::faults) assumes the fault
 * map is known. When it is not — the array is deployed and faults
 * accumulate over its lifetime — the right objective is the *expected*
 * step time over the fault distribution. robustPlan approximates it by
 * Monte Carlo: draw K fault maps from the (rate, seed) distribution
 * (arch::sampleFaultMap with per-sample seeds from arch::mixSeed),
 * build a candidate pool from the pristine optimum plus each sample's
 * re-planned optimum, score every candidate on every sampled array
 * with Evaluator::evaluateBatch, and return the candidate with the
 * lowest mean step time.
 *
 * Everything is deterministic for a fixed seed at any thread count:
 * the sampler is a hand-rolled splitmix64 stream, the search engines
 * are exact and deterministic, evaluateBatch is bit-identical to the
 * sequential loop, and the mean runs in fixed sample order. Ties on
 * the expected cost break toward the earliest candidate (the pristine
 * plan is candidate 0, then sample order).
 */

#ifndef HYPAR_SIM_ROBUST_HH
#define HYPAR_SIM_ROBUST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/fault_map.hh"
#include "core/plan.hh"
#include "sim/evaluator.hh"
#include "util/thread_pool.hh"

namespace hypar::sim {

/** Knobs of the robust search. */
struct RobustOptions
{
    /** Per-component fault probability of the sampled distribution. */
    double rate = 0.1;

    /** Monte Carlo sample count K (must be >= 1). */
    std::size_t samples = 8;

    /** Base seed; sample k uses arch::mixSeed(seed, k). */
    std::uint64_t seed = 0;
};

/** One scored candidate plan. */
struct RobustCandidate
{
    core::HierarchicalPlan plan;

    /** Mean step seconds over the K sampled degraded arrays. */
    double expectedStepSeconds = 0.0;

    /** Step seconds per sample (fixed sample order, size K). */
    std::vector<double> sampleStepSeconds;
};

/** Result of the robust search. */
struct RobustResult
{
    /** The argmin-expected-cost candidate's plan. */
    core::HierarchicalPlan plan;

    /** Its expected step seconds over the distribution. */
    double expectedStepSeconds = 0.0;

    /**
     * Expected step seconds of the *pristine-optimal* plan (candidate
     * 0) over the same samples: the cost of planning as if the array
     * were healthy. >= expectedStepSeconds by construction; the gap is
     * what robustness buys.
     */
    double pristineExpectedStepSeconds = 0.0;

    /** Index of the winning candidate in `candidates`. */
    std::size_t winner = 0;

    /** The deduplicated candidate pool (pristine optimum first). */
    std::vector<RobustCandidate> candidates;

    /** The sampled fault maps, in sample order. */
    std::vector<arch::FaultMap> sampleMaps;
};

/**
 * Run the robust search for `network` under `config` (whose `faults`
 * field is ignored — the distribution replaces it). Every exact search
 * and every scoring batch runs on `pool`; the result is bit-identical
 * on every pool. Fatal when options.samples == 0 or options.rate is
 * outside [0, 1].
 */
RobustResult robustPlan(const dnn::Network &network,
                        const SimConfig &config,
                        const RobustOptions &options,
                        util::ThreadPool &pool = util::ThreadPool::global());

} // namespace hypar::sim

#endif // HYPAR_SIM_ROBUST_HH
