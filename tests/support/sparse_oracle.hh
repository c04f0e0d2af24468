/**
 * @file
 * Exact joint-search oracle for the A* engine past the dense H = 10
 * ceiling: the chain DP over 2^H level-vector states per layer, with
 * dominance pruning instead of a heuristic.
 *
 * For each target state s the predecessors p are scanned in ascending
 * (cost, index) order, and the scan stops once cost[p] plus a lower
 * bound on any transition into s can no longer beat the best candidate.
 * The bound sums, level by level, the cheapest entry of the factored
 * inter-table row s selects, in the same level-ascending order as the
 * real transition sums. Float rounding is monotone, so the bound holds
 * in float arithmetic, nothing skipped could win or tie, and the result
 * (cost and plan, ties broken by core::better) is bit-identical to the
 * exhaustive dense DP. It reaches H = 16 in O(L * 4^H) worst case, far
 * less in practice.
 *
 * Independence: the oracle shares no code with
 * src/core/optimal_partitioner.cc. It rebuilds its own per-level intra
 * and inter tables from the public CommModel::levelWeight,
 * CommModel::intraBytesAt and CommModel::interBytesAt, summed
 * level-ascending like OptimalPartitioner::intraCost/interCost. It
 * borrows neither A*'s suffix bound nor its incumbent pass, so a bug in
 * either shows up as a mismatch here. Chains only.
 */

#ifndef HYPAR_TESTS_SUPPORT_SPARSE_ORACLE_HH
#define HYPAR_TESTS_SUPPORT_SPARSE_ORACLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/plan.hh"
#include "core/tie_break.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace hypar::tests {

namespace detail {

/** dp count among the bits of `v` strictly below level h (bit = mp). */
inline unsigned
oracleDpAbove(std::uint32_t v, std::size_t h)
{
    const auto below = static_cast<std::uint32_t>((1u << h) - 1u);
    return static_cast<unsigned>(h) -
           static_cast<unsigned>(std::popcount(v & below));
}

inline core::Parallelism
oracleChoice(unsigned bit)
{
    return bit ? core::Parallelism::kModel : core::Parallelism::kData;
}

} // namespace detail

/**
 * Optimal hierarchical plan of a chain network over `levels` levels by
 * the dominance-pruned DP above. Fills commBytes, plan and
 * transitionsEvaluated (transitions the early break did not skip).
 */
inline core::HierarchicalResult
sparseOracle(const core::CommModel &model, std::size_t levels)
{
    using detail::oracleChoice;
    using detail::oracleDpAbove;
    HYPAR_ASSERT(model.network().isChain(), "sparse oracle is chain-only");
    HYPAR_ASSERT(levels <= 16, "sparse oracle capped at H = 16");
    const std::size_t num_layers = model.numLayers();
    HYPAR_ASSERT(num_layers > 0, "partitioning an empty network");

    const std::uint32_t states = 1u << levels;
    const std::size_t keys = levels + 1; // dpAbove in 0..levels
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // intra[l * states + s], summed level-ascending.
    std::vector<double> intra(num_layers * states);
    for (std::size_t l = 0; l < num_layers; ++l) {
        for (std::uint32_t s = 0; s < states; ++s) {
            double total = 0.0;
            for (std::size_t h = 0; h < levels; ++h) {
                const unsigned dp = oracleDpAbove(s, h);
                total += model.levelWeight(h) *
                         model.intraBytesAt(l, oracleChoice((s >> h) & 1u),
                                            dp,
                                            static_cast<unsigned>(h) - dp);
            }
            intra[l * states + s] = total;
        }
    }

    // col[p * levels + h]: p's column (p_h, dpAbove(p, h)) in a level-h
    // row of the factored inter table.
    std::vector<std::uint16_t> col(std::size_t{states} * levels);
    for (std::uint32_t p = 0; p < states; ++p)
        for (std::size_t h = 0; h < levels; ++h)
            col[std::size_t{p} * levels + h] = static_cast<std::uint16_t>(
                ((p >> h) & 1u) * keys + oracleDpAbove(p, h));

    auto &pool = util::ThreadPool::global();
    const std::size_t grain = pool.grainFor(states);
    const std::size_t chunks = (states + grain - 1) / grain;

    std::vector<double> cost(intra.begin(), intra.begin() + states);
    std::vector<double> next(states);
    std::vector<std::uint32_t> parent(num_layers * states, 0);
    std::vector<std::uint32_t> order(states);
    std::vector<std::uint64_t> evaluated(chunks);
    // table[((h * 2 + sb) * keys + b) * 2 * keys + pb * keys + a]: the
    // level-h inter term with target key (s_h, dpAbove(s, h)) = (sb, b)
    // and source key (p_h, dpAbove(p, h)) = (pb, a). rowmin holds each
    // row's cheapest reachable entry (a <= h).
    std::vector<double> table(levels * 2 * keys * 2 * keys);
    std::vector<double> rowmin(levels * 2 * keys);
    std::uint64_t total_evaluated = 0;

    for (std::size_t l = 1; l < num_layers; ++l) {
        for (std::size_t h = 0; h < levels; ++h) {
            const double weight = model.levelWeight(h);
            for (unsigned sb = 0; sb < 2; ++sb) {
                for (unsigned b = 0; b < keys; ++b) {
                    double *row = &table[((h * 2 + sb) * keys + b) * 2 * keys];
                    double m = kInf;
                    for (unsigned pb = 0; pb < 2; ++pb) {
                        for (unsigned a = 0; a < keys; ++a) {
                            const double v =
                                weight * model.interBytesAt(
                                             l - 1, oracleChoice(pb),
                                             oracleChoice(sb), a, b);
                            row[pb * keys + a] = v;
                            if (a <= h)
                                m = std::min(m, v);
                        }
                    }
                    rowmin[(h * 2 + sb) * keys + b] = m;
                }
            }
        }

        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      return core::better(cost[x], x, cost[y], y);
                  });

        const double *intra_l = &intra[l * states];
        std::uint32_t *parent_l = &parent[l * states];
        std::fill(evaluated.begin(), evaluated.end(), 0);
        pool.parallelFor(0, states, grain, [&](std::size_t begin,
                                               std::size_t end) {
            std::uint64_t &count = evaluated[begin / grain];
            std::vector<const double *> rows(levels);
            for (std::size_t s = begin; s < end; ++s) {
                const auto sv = static_cast<std::uint32_t>(s);
                double lb = 0.0;
                for (std::size_t h = 0; h < levels; ++h) {
                    const std::size_t key =
                        (h * 2 + ((sv >> h) & 1u)) * keys +
                        oracleDpAbove(sv, h);
                    rows[h] = &table[key * 2 * keys];
                    lb += rowmin[key];
                }
                double best = kInf;
                std::uint32_t best_prev = 0;
                for (const std::uint32_t p : order) {
                    if (cost[p] + lb > best)
                        break; // every later p costs at least as much
                    const std::uint16_t *pc = &col[std::size_t{p} * levels];
                    double t = 0.0;
                    for (std::size_t h = 0; h < levels; ++h)
                        t += rows[h][pc[h]];
                    ++count;
                    const double c = cost[p] + t;
                    if (core::better(c, p, best, best_prev)) {
                        best = c;
                        best_prev = p;
                    }
                }
                next[s] = best + intra_l[s];
                parent_l[s] = best_prev;
            }
        });
        for (const std::uint64_t e : evaluated)
            total_evaluated += e;
        cost.swap(next);
    }

    core::HierarchicalResult result;
    result.plan.levels.assign(
        levels, core::LevelPlan(num_layers, core::Parallelism::kData));
    std::uint32_t state = 0;
    for (std::uint32_t s = 1; s < states; ++s)
        if (cost[s] < cost[state])
            state = s;
    result.commBytes = cost[state];
    result.transitionsEvaluated = total_evaluated;
    for (std::size_t l = num_layers; l-- > 0;) {
        core::assignLayerFromState(result.plan, l, state);
        if (l > 0)
            state = parent[l * states + state];
    }
    return result;
}

} // namespace hypar::tests

#endif // HYPAR_TESTS_SUPPORT_SPARSE_ORACLE_HH
