/**
 * @file
 * Exact joint partition search over series-parallel DAG networks.
 *
 * Chain networks keep the original engines (optimal_partitioner.cc)
 * untouched; a network with isChain() == false routes here. The DAG
 * must be two-terminal series-parallel (TTSP) between layer 0 (the
 * source) and layer L-1 (the sink) — ResNet residual blocks and
 * inception-style branch/merge graphs are TTSP; a non-TTSP graph is
 * rejected with a descriptive fatal.
 *
 * ## Decomposition
 *
 * The DAG is reduced to a decomposition tree by the classic TTSP
 * reduction: repeatedly merge parallel edges (two edges with the same
 * endpoints become one P-node) and series vertices (an interior vertex
 * with in-degree 1 and out-degree 1 becomes the middle vertex of an
 * S-node). The reduction succeeds — one edge from source to sink
 * remains — iff the DAG is TTSP. Every interior layer disappears as
 * the middle vertex of exactly one S-node, which is where its intra
 * cost is charged; the two terminals are charged once at the root.
 *
 * ## The DP
 *
 * Each tree node is a sub-DAG with two boundary layers (s = its source,
 * t = its sink). The table F[s-state][t-state] holds the cheapest cost
 * of all *interior* choices of the component — edge (inter) charges of
 * every contained edge plus intra charges of every interior layer,
 * excluding the terminals' own intra:
 *
 *   leaf (u, w):  F[a][b] = interCost(u, a, b)   (the Table 2 charge of
 *                 one edge; a join layer's incoming edges each carry a
 *                 full summand of the elementwise sum, so they are
 *                 independent leaves summed by the P-nodes above)
 *   series (A, m, B):  F[a][b] = min_x (F_A[a][x] + I_m[x]) + F_B[x][b]
 *   parallel (A, B):   F[a][b] = F_A[a][b] + F_B[a][b]
 *   root: total[a][b] = (I_0[a] + F[a][b]) + I_{L-1}[b]
 *
 * Parallel branches therefore solve independently per boundary state
 * and merge state-by-state — never jointly — which is what keeps the
 * search polynomial in the branch count.
 *
 * ## Ties and exactness
 *
 * Ties follow the shared rule (core/tie_break.hh) on the packed
 * assignment key — the *same* concatenated level-mask key the chain
 * oracles use (level 0's mask most significant; within a level, layer
 * 0 at the least significant bit), so the flat enumeration oracle's
 * "first optimum in ascending mask order" resolves ties identically.
 * The DP carries the key alongside the cost; because parallel branches own
 * disjoint interior layers (disjoint key bit fields) and all byte
 * amounts are dyadic rationals whose sums are exact in double
 * precision, the per-branch (cost, key) minima compose to the global
 * lexicographic minimum, and the DP total equals planBytes() of the
 * returned plan bit-for-bit. The randomized differential suite
 * (tests/test_dag_differential.cc) pins the search against the
 * flat enumeration oracle on both claims.
 *
 * One scan serves every SearchEngine on DAGs (the engine choice only
 * steers chains): for each source state the series merge visits the
 * middle states in ascending A-side order (A cost + middle intra, ties
 * by state) and stops once that part alone exceeds the best candidate.
 * The cut is admissible because the B-side addend is non-negative and
 * float rounding is monotone: apart > best implies
 * fl(apart + b) >= apart > best, so nothing skipped could win or even
 * tie. The search is exact and certifies
 * (SearchStats::certifiedExact), with widthUsed = 2^H; `pruned` counts
 * the middle states each cut skipped.
 */

#ifndef HYPAR_CORE_SERIES_PARALLEL_HH
#define HYPAR_CORE_SERIES_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"

namespace hypar::core {

/** Depth ceiling of the series-parallel search: the S-node merge is
 *  O(8^H) per interior layer, and 8 levels keep the packed key within
 *  64 bits for any network the oracle can check. */
constexpr std::size_t kSpMaxLevels = 8;

/** The packed assignment key must fit one uint64 (H * L <= 64). */
constexpr std::size_t kSpMaxKeyBits = 64;

/**
 * Pack one layer's H-bit level vector into the concatenated
 * level-mask key (bit h of `state` lands at bit
 * (levels-1-h) * num_layers + l). Each layer owns a disjoint set of
 * key bits, so parallel-branch keys compose by OR, and the convention
 * matches the chain oracles' tie-break key exactly.
 */
constexpr std::uint64_t
spPackLayerState(std::size_t levels, std::size_t num_layers,
                 std::size_t l, std::uint64_t state)
{
    std::uint64_t key = 0;
    for (std::size_t h = 0; h < levels; ++h) {
        if ((state >> h) & 1u)
            key |= std::uint64_t{1} << ((levels - 1 - h) * num_layers + l);
    }
    return key;
}

/** Inverse of spPackLayerState: layer l's level vector from a key. */
constexpr std::uint64_t
spExtractLayerState(std::size_t levels, std::size_t num_layers,
                    std::size_t l, std::uint64_t key)
{
    std::uint64_t state = 0;
    for (std::size_t h = 0; h < levels; ++h) {
        if ((key >> ((levels - 1 - h) * num_layers + l)) & 1u)
            state |= std::uint64_t{1} << h;
    }
    return state;
}

/**
 * True when `network`'s DAG is two-terminal series-parallel between
 * layer 0 and layer L-1 (chains trivially are). When false and
 * `reason` is non-null, *reason describes where the TTSP reduction got
 * stuck.
 */
bool isSeriesParallel(const dnn::Network &network,
                      std::string *reason = nullptr);

/**
 * Exact joint search over a series-parallel DAG (the non-chain branch
 * of OptimalPartitioner::partition, whatever its SearchEngine). Fatal
 * on non-TTSP networks, levels > kSpMaxLevels, or
 * levels * L > kSpMaxKeyBits.
 */
HierarchicalResult searchSeriesParallel(const CommModel &model,
                                        std::size_t levels);

} // namespace hypar::core

#endif // HYPAR_CORE_SERIES_PARALLEL_HH
