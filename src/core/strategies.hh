/**
 * @file
 * Baseline partition strategies the paper compares against:
 *
 *  - default Data Parallelism: every layer dp at every level,
 *  - default Model Parallelism: every layer mp at every level,
 *  - "one weird trick" (Krizhevsky 2014): conv layers dp, fc layers mp,
 *    at every level,
 *  - HyPar itself (a thin wrapper over HierarchicalPartitioner).
 */

#ifndef HYPAR_CORE_STRATEGIES_HH
#define HYPAR_CORE_STRATEGIES_HH

#include <string>
#include <vector>

#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/plan.hh"
#include "dnn/network.hh"
#include "util/thread_pool.hh"

namespace hypar::core {

/** All layers data parallel at all `levels` hierarchy levels. */
HierarchicalPlan makeDataParallelPlan(const dnn::Network &network,
                                      std::size_t levels);

/** All layers model parallel at all `levels` hierarchy levels. */
HierarchicalPlan makeModelParallelPlan(const dnn::Network &network,
                                       std::size_t levels);

/** Krizhevsky's "one weird trick": conv -> dp, fc -> mp, all levels. */
HierarchicalPlan makeOneWeirdTrickPlan(const dnn::Network &network,
                                       std::size_t levels);

/** The HyPar plan for this model/config (Algorithm 2). */
HierarchicalPlan makeHyparPlan(const CommModel &model, std::size_t levels);

/** Identifier for the four named strategies. */
enum class Strategy { kDataParallel, kModelParallel, kOneWeirdTrick,
                      kHypar };

/** Human-readable strategy name as used in the paper's figures. */
const char *toString(Strategy s);

/** Build the plan for a named strategy. */
HierarchicalPlan makePlan(Strategy s, const CommModel &model,
                          std::size_t levels);

/**
 * Fatal unless `name` is a strategy the front ends accept (hyparc's
 * `--strategy`, the serve `strategy` field): hypar | dp | mp | owt |
 * optimal. Lets a server reject a bad name before it builds anything.
 */
void validateStrategyName(const std::string &name);

/**
 * Build the plan of the front-end strategy `name` (see
 * validateStrategyName; fatal on any other name). "optimal" runs the
 * exact joint search (OptimalPartitioner) on `pool` and, when `search`
 * is non-null, stores its whole result there.
 */
HierarchicalPlan makeNamedPlan(const std::string &name,
                               const CommModel &model, std::size_t levels,
                               util::ThreadPool &pool,
                               HierarchicalResult *search = nullptr);

} // namespace hypar::core

#endif // HYPAR_CORE_STRATEGIES_HH
