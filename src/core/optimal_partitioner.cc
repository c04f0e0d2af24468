#include "core/optimal_partitioner.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>

#include "core/series_parallel.hh"
#include "core/simd_kernels.hh"
#include "core/tie_break.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace hypar::core {

namespace {

constexpr std::size_t kDenseMax = OptimalPartitioner::kDenseMaxLevels;
constexpr std::size_t kWideMax = OptimalPartitioner::kMaxLevels;

/** dp count among the bits of `v` strictly below level h (bit = mp). */
unsigned
dpAbove(std::uint32_t v, std::size_t h)
{
    const auto mask = static_cast<std::uint32_t>((1u << h) - 1u);
    const auto mp = static_cast<unsigned>(std::popcount(v & mask));
    return static_cast<unsigned>(h) - mp;
}

unsigned
mpAbove(std::uint32_t v, std::size_t h)
{
    const auto mask = static_cast<std::uint32_t>((1u << h) - 1u);
    return static_cast<unsigned>(std::popcount(v & mask));
}

Parallelism
choiceAt(std::uint32_t v, std::size_t h)
{
    return (v >> h) & 1u ? Parallelism::kModel : Parallelism::kData;
}

/**
 * Factored inter-layer cost table of one l -> l+1 transition.
 *
 * interCost(l, p, s) = sum_h w_h * interBytesAt(l, p_h, s_h,
 *                                               dpAbove(p,h),
 *                                               dpAbove(s,h))
 *
 * with w_h = CommModel::levelWeight(h): the exact 2^h on a pristine
 * array, 2^h * penalty_h on a degraded one — the weighting is uniform
 * per level, so every per-level min/dominance argument below carries
 * over unchanged.
 *
 * Each addend depends on the level h, the two choices at h, and the two
 * producer dp counts below h — at most H * 2 * 2 * (H+1) * (H+1)
 * distinct values per layer, which this table enumerates up front so
 * the DP never calls the CommModel again. Layout groups the s-side keys
 * (h, s_h, dpAbove(s,h)) outermost: for a fixed target state the DP
 * grabs one contiguous [p_h][dpAbove(p,h)] row per level.
 */
class InterTermTable
{
  public:
    InterTermTable(const CommModel &model, std::size_t layer,
                   std::size_t levels)
        : levels_(levels), terms_(levels * 2 * (levels + 1) * 2 *
                                  (levels + 1))
    {
        for (std::size_t h = 0; h < levels; ++h) {
            const double weight = model.levelWeight(h);
            for (unsigned sb = 0; sb < 2; ++sb) {
                for (unsigned b = 0; b <= levels; ++b) {
                    double *row = rowAt(h, sb, b);
                    for (unsigned pb = 0; pb < 2; ++pb) {
                        for (unsigned a = 0; a <= levels; ++a) {
                            row[pb * (levels_ + 1) + a] =
                                weight *
                                model.interBytesAt(
                                    layer,
                                    pb ? Parallelism::kModel
                                       : Parallelism::kData,
                                    sb ? Parallelism::kModel
                                       : Parallelism::kData,
                                    a, b);
                        }
                    }
                }
            }
        }
    }

    /** Contiguous [p_h][dpAbove(p,h)] row for the s-side key (h, sb, b). */
    const double *rowAt(std::size_t h, unsigned sb, unsigned b) const
    {
        return &terms_[((h * 2 + sb) * (levels_ + 1) + b) * 2 *
                       (levels_ + 1)];
    }

  private:
    double *rowAt(std::size_t h, unsigned sb, unsigned b)
    {
        return &terms_[((h * 2 + sb) * (levels_ + 1) + b) * 2 *
                       (levels_ + 1)];
    }

    std::size_t levels_;
    std::vector<double> terms_;
};

/**
 * Relative slack used whenever a floating-point `g + h` is compared
 * against an incumbent cost C: a node is pruned only when the value
 * exceeds C * (1 + kBoundSlack). The suffix bound is admissible
 * addend-by-addend, but its multi-layer sum is associated differently
 * from the DP's own left-to-right accumulation; the slack absorbs that re-association drift (at most
 * ~2L * 2^-53 relative — five orders of magnitude below 1e-9) so no
 * state whose true float-semantics completion is <= C — including
 * exact ties, which the shared tie-break rule must still see — is
 * ever cut. See the admissibility argument in optimal_partitioner.hh.
 */
constexpr double kBoundSlack = 1e-9;

/**
 * Deflation for A*'s fast transition screen: a re-associated sum of
 * the same non-negative addends (two-level pair sums, or a
 * 4-accumulator split on short scans) is within
 * 2H * 2^-53 < 4e-15 relative of the canonical ascending-order sum, so
 * multiplying it by (1 - 1e-12) yields a certified lower bound on the
 * exact value — candidates rejected against it can never win (or tie)
 * the argmin.
 */
constexpr double kScreenSlack = 1.0 - 1e-12;

/**
 * Minimum binary-searched scan-prefix length at which A* builds the
 * per-node level-pair screen table: the ~3k-add build amortizes over
 * the halved per-candidate screen cost only on long scans, and short
 * scans keep the gather-based four-accumulator screen.
 */
constexpr std::size_t kPairScreenMin = 256;

double
inflate(double cost)
{
    return cost * (1.0 + kBoundSlack);
}

/**
 * Per-target row minima of one factored table: the cheapest admissible
 * p-side entry (p_h in {0,1}, dpAbove(p,h) <= h) of each (h, sb,
 * b <= h) row: the per-target lower-bound ingredient (lbIn) of the
 * suffix bound's M term. Slots with b > h are unreachable and stay
 * +inf.
 */
std::vector<double>
targetRowMins(const InterTermTable &iterm, std::size_t levels)
{
    std::vector<double> rowmin(levels * 2 * (levels + 1),
                               std::numeric_limits<double>::infinity());
    for (std::size_t h = 0; h < levels; ++h) {
        for (unsigned sb = 0; sb < 2; ++sb) {
            for (unsigned b = 0; b <= h; ++b) {
                const double *row = iterm.rowAt(h, sb, b);
                double m = std::numeric_limits<double>::infinity();
                for (unsigned pb = 0; pb < 2; ++pb)
                    for (unsigned a = 0; a <= h; ++a)
                        m = std::min(m, row[pb * (levels + 1) + a]);
                rowmin[(h * 2 + sb) * (levels + 1) + b] = m;
            }
        }
    }
    return rowmin;
}

/**
 * pcol[p * levels + h]: column of state p in the level-h row of a
 * factored table — (p_h, dpAbove(p,h)) flattened. Shared by every
 * layer transition of the A* engine.
 */
std::vector<std::uint16_t>
buildPcol(std::size_t levels)
{
    const std::uint32_t states = 1u << levels;
    std::vector<std::uint16_t> pcol(std::size_t{states} * levels);
    for (std::uint32_t p = 0; p < states; ++p)
        for (std::size_t h = 0; h < levels; ++h)
            pcol[std::size_t{p} * levels + h] =
                static_cast<std::uint16_t>(((p >> h) & 1u) *
                                               (levels + 1) +
                                           dpAbove(p, h));
    return pcol;
}

/** One InterTermTable per l -> l+1 transition, shared by A*'s passes
 *  (bound, incumbent, search). */
std::vector<InterTermTable>
buildInterTables(const CommModel &model, std::size_t levels)
{
    const std::size_t num_layers = model.numLayers();
    std::vector<InterTermTable> tables;
    if (num_layers > 1) {
        tables.reserve(num_layers - 1);
        for (std::size_t l = 0; l + 1 < num_layers; ++l)
            tables.emplace_back(model, l, levels);
    }
    return tables;
}

/**
 * popcount(p) for every state, as the u8 side table the expandLevel
 * kernel indexes (a = h - pcnt[p]); built once per engine pass.
 */
std::vector<std::uint8_t>
buildPcnt(std::uint32_t states)
{
    std::vector<std::uint8_t> pcnt(states);
    for (std::uint32_t p = 0; p < states; ++p)
        pcnt[p] = static_cast<std::uint8_t>(std::popcount(p));
    return pcnt;
}

/**
 * t[s] = sum_h rows[(h * 2 + s_h) * (levels + 1) + dpAbove(s, h)] for
 * all 2^levels states, by one expandLevel pass per level from
 * t[0] = 0.0. The additions run level-ascending from 0.0,
 * so every entry is bit-identical to the per-state loop
 * `t = 0.0; for h: t += row_{s_h}[dpAbove(s, h)]`.
 */
void
expandStates(const simd::Kernels &kern, double *t, const double *rows,
             const std::uint8_t *pcnt, std::size_t levels)
{
    const std::size_t cols = 2 * (levels + 1);
    t[0] = 0.0;
    for (std::size_t h = 0; h < levels; ++h)
        kern.expandLevel(t, std::size_t{1} << h, &rows[h * cols],
                         &rows[h * cols + levels + 1], pcnt,
                         static_cast<unsigned>(h));
}

/**
 * The admissible suffix bound h[l * 2^levels + s] of
 * optimal_partitioner.hh: a real-arithmetic lower bound on everything
 * the DP adds after layer l's intra term when layer l sits in state s
 * (the l -> l+1 transition plus every deeper intra and transition).
 * One backward min-over-transitions pass per layer over the factored
 * tables:
 *
 *   h[l][s] = max( lbOut(l, s) + m[l+1],  M[l],  C(l, s) )
 *
 * with lbOut/m/M and the per-level chain term C as documented in the
 * header. Monotone (consistent)
 * by construction: both arguments of the max bound the one-step
 * expansion trans + intra' + h' from below. The three per-state level
 * sums (lbIn, lbOut, C) are each one level-bit expansion over 2^H
 * states, so the whole bound is O(L * (2^H + H^3)), serial; the sums
 * run level-ascending like every real transition sum, so addend-wise
 * domination survives the float arithmetic (the cross-layer
 * re-association is what kBoundSlack absorbs at comparison time).
 */
std::vector<double>
suffixBound(const CommModel &model, std::size_t levels,
            std::size_t num_layers, const std::vector<double> &intra,
            const std::vector<InterTermTable> &inter)
{
    const std::size_t states = std::size_t{1} << levels;
    std::vector<double> bound(num_layers * states, 0.0);
    const std::size_t cols = 2 * (levels + 1);
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Per-level chain term: the joint cost decomposes as a sum over
    // hierarchy levels, and for a fixed level h the per-layer choices
    // form a plain 2-state chain. Relax each level-h addend over the
    // upper-level count arguments (min over dp_above + mp_above = h)
    // and solve that tiny chain *exactly* backward:
    //
    //   chain[l][h][bit] = min over next bit nb of
    //       transMin_h(l, bit, nb) + intraMin_h(l+1, nb)
    //     + chain[l+1][h][nb]
    //
    // Then sum_h chain[l][h][s_h] lower-bounds the full remaining
    // cost from (l, s) — per level it is a minimum over all bit
    // sequences that start at s's own bit, so unlike the scalar m/M
    // terms it charges every mp bit its unavoidable downstream cost.
    // imin[(l * levels + h) * 2 + bit] is the relaxed per-level intra
    // term (levelWeight(h) = 2^h * penalty_h included; the weight is
    // the same for every candidate of a level, so the relaxation stays
    // an addend-wise lower bound under degraded links too).
    std::vector<double> imin(num_layers * levels * 2, kInf);
    for (std::size_t l = 0; l < num_layers; ++l) {
        for (std::size_t h = 0; h < levels; ++h) {
            const double weight = model.levelWeight(h);
            for (unsigned bit = 0; bit < 2; ++bit) {
                double m = kInf;
                for (unsigned a = 0; a <= h; ++a)
                    m = std::min(
                        m, weight * model.intraBytesAt(
                                        l,
                                        bit ? Parallelism::kModel
                                            : Parallelism::kData,
                                        a, static_cast<unsigned>(h) - a));
                imin[(l * levels + h) * 2 + bit] = m;
            }
        }
    }
    std::vector<double> chain(num_layers * levels * 2, 0.0);
    for (std::size_t l = num_layers - 1; l-- > 0;) {
        const InterTermTable &iterm = inter[l];
        for (std::size_t h = 0; h < levels; ++h) {
            for (unsigned pb = 0; pb < 2; ++pb) {
                double best = kInf;
                for (unsigned sb = 0; sb < 2; ++sb) {
                    double tmin = kInf;
                    for (unsigned b = 0; b <= h; ++b) {
                        const double *row = iterm.rowAt(h, sb, b);
                        for (unsigned a = 0; a <= h; ++a)
                            tmin = std::min(
                                tmin, row[pb * (levels + 1) + a]);
                    }
                    best = std::min(
                        best,
                        tmin + imin[((l + 1) * levels + h) * 2 + sb] +
                            chain[((l + 1) * levels + h) * 2 + sb]);
                }
                chain[(l * levels + h) * 2 + pb] = best;
            }
        }
    }

    const simd::Kernels &kern = simd::activeKernels();
    const std::vector<std::uint8_t> pcnt =
        buildPcnt(static_cast<std::uint32_t>(states));
    // outmin[h * cols + col]: cheapest admissible target-side entry
    // (s'_h in {0,1}, dpAbove(s',h) <= h) of level h at the source's
    // fixed column `col` — the per-level ingredient of lbOut. It and
    // the chain rows share targetRowMins' [h][bit][dpAbove] layout, so
    // all three per-state sums expand from the same row geometry.
    std::vector<double> outmin(levels * cols);
    std::vector<double> chain_rows(levels * cols);
    std::vector<double> lbin(states);
    std::vector<double> lbout(states);
    std::vector<double> per_level(states);

    for (std::size_t l = num_layers - 1; l-- > 0;) {
        const InterTermTable &iterm = inter[l];
        const double *chain_l = &chain[l * levels * 2];
        for (std::size_t h = 0; h < levels; ++h) {
            for (std::size_t col = 0; col < cols; ++col) {
                double m = kInf;
                for (unsigned sb = 0; sb < 2; ++sb)
                    for (unsigned b = 0; b <= h; ++b)
                        m = std::min(m, iterm.rowAt(h, sb, b)[col]);
                outmin[h * cols + col] = m;
                // The chain term depends on s_h alone: constant rows.
                chain_rows[h * cols + col] =
                    chain_l[h * 2 + (col > levels ? 1 : 0)];
            }
        }
        // Per-target row minima: the lbIn ingredient of the M term.
        const std::vector<double> inmin = targetRowMins(iterm, levels);
        expandStates(kern, lbin.data(), inmin.data(), pcnt.data(),
                     levels);
        expandStates(kern, lbout.data(), outmin.data(), pcnt.data(),
                     levels);
        expandStates(kern, per_level.data(), chain_rows.data(),
                     pcnt.data(), levels);

        // m = min_s'(intra' + h'); M = min_s'(lbIn(s') + intra' + h').
        // Scalar float mins are order-independent.
        const double *intra_next = &intra[(l + 1) * states];
        const double *bound_next = &bound[(l + 1) * states];
        double m = kInf;
        double big_m = kInf;
        for (std::size_t s = 0; s < states; ++s) {
            const double rest = intra_next[s] + bound_next[s];
            m = std::min(m, rest);
            big_m = std::min(big_m, lbin[s] + rest);
        }

        double *bound_l = &bound[l * states];
        for (std::size_t s = 0; s < states; ++s)
            bound_l[s] =
                std::max(std::max(lbout[s] + m, big_m), per_level[s]);
    }
    return bound;
}

HierarchicalResult assemblePlan(std::size_t levels,
                                std::size_t num_layers,
                                std::uint32_t states,
                                const std::vector<double> &cost,
                                const std::vector<std::uint32_t> &parent);

/** Tables shared by A*'s passes (incumbent beam pass and search). */
struct WideTables
{
    std::vector<double> intra;         //!< [l * 2^H + s]
    std::vector<InterTermTable> inter; //!< one per l -> l+1
    std::vector<double> suffix;        //!< admissible bound h[l][s]
};

/**
 * One fixed-width beam pass: A*'s incumbent. Keeps the `beam_width`
 * best states of each layer frontier as transition predecessors and
 * returns an achieved plan, whose cost upper-bounds the optimum, with
 * its transitionsEvaluated. Serial: at width 8 a layer is 8 row
 * relaxations, too little work to repay fanning it out and merging.
 */
HierarchicalResult
beamPass(std::size_t levels, std::size_t num_layers,
         std::size_t beam_width, const WideTables &tables)
{
    const std::uint32_t states = 1u << levels;
    const simd::Kernels &kern = simd::activeKernels();
    const std::vector<std::uint8_t> pcnt = buildPcnt(states);

    const std::vector<double> &intra = tables.intra;
    std::vector<double> cost(intra.begin(), intra.begin() + states);
    std::vector<std::uint32_t> parent(num_layers * states, 0);
    std::vector<double> next(states);
    std::vector<std::uint32_t> frontier;
    std::vector<double> fscore(states);
    // trans[s] = interCost(l-1, p, s) for the current predecessor p.
    const auto trans = std::make_unique_for_overwrite<double[]>(states);
    const std::size_t fsize = std::min<std::size_t>(beam_width, states);

    // The beam: the `beam_width` best states under (f, index) with
    // f = cost-so-far + suffix bound — ranked by provable completable
    // cost, not by prefix cost alone — listed in ascending state
    // index. The best set under a strict total order is unique, so
    // the frontier — and everything downstream — is deterministic.
    auto pruneFrontier = [&](std::size_t l) {
        frontier.resize(states);
        std::iota(frontier.begin(), frontier.end(), 0u);
        if (beam_width < states) {
            const double *suffix_l = &tables.suffix[l * states];
            for (std::uint32_t s = 0; s < states; ++s)
                fscore[s] = cost[s] + suffix_l[s];
            std::nth_element(frontier.begin(),
                             frontier.begin() +
                                 static_cast<std::ptrdiff_t>(beam_width),
                             frontier.end(),
                             [&](std::uint32_t x, std::uint32_t y) {
                                 return better(fscore[x], x, fscore[y],
                                               y);
                             });
            frontier.resize(beam_width);
            std::sort(frontier.begin(), frontier.end());
        }
    };

    // tp[(h * 2 + sb) * (levels + 1) + b]: the (h, sb, b) table entry
    // at p's fixed column, gathered up front so the expansion reads
    // contiguously. Left uninitialized: the expansion reads only the
    // b <= h entries written below.
    std::array<double, kWideMax * 2 * (kWideMax + 1)> tp;
    for (std::size_t l = 1; l < num_layers; ++l) {
        const InterTermTable &iterm = tables.inter[l - 1];
        const double *intra_l = &intra[l * states];
        std::uint32_t *parent_l = &parent[l * states];

        pruneFrontier(l - 1);
        HYPAR_ASSERT(frontier.size() == fsize,
                     "beam frontier width changed between layers");

        std::fill_n(next.data(), states,
                    std::numeric_limits<double>::infinity());
        for (const std::uint32_t p : frontier) {
            for (std::size_t h = 0; h < levels; ++h) {
                const std::size_t col =
                    ((p >> h) & 1u) * (levels + 1) + dpAbove(p, h);
                for (unsigned sb = 0; sb < 2; ++sb) {
                    for (unsigned b = 0; b <= h; ++b)
                        tp[(h * 2 + sb) * (levels + 1) + b] =
                            iterm.rowAt(h, sb, b)[col];
                }
            }
            // Built for all 2^H targets at once by expanding one level
            // bit at a time — the mirror image of the dense engine's
            // p-side expansion, with the additions in the same
            // level-ascending order, so every transition sum is
            // bit-identical to the dense DP's.
            expandStates(kern, trans.get(), tp.data(), pcnt.data(),
                         levels);
            // relaxRow keeps the incumbent on exact ties, which equals
            // better() here because the frontier is sorted: p strictly
            // ascends, so the incumbent is the lower-index candidate.
            kern.relaxRow(next.data(), parent_l, trans.get(), cost[p], p,
                          states);
        }
        for (std::uint32_t s = 0; s < states; ++s)
            next[s] += intra_l[s];
        cost.swap(next);
    }

    HierarchicalResult result =
        assemblePlan(levels, num_layers, states, cost, parent);
    result.transitionsEvaluated =
        static_cast<std::uint64_t>(fsize) * states * (num_layers - 1);
    return result;
}

/**
 * Final argmin over the last layer's costs (ascending s with strict <
 * == the dp-heavier tie-break) plus parent-chain plan reconstruction,
 * shared by every table engine. `parent` is the flat
 * [layer * states + state] predecessor table.
 */
HierarchicalResult
assemblePlan(std::size_t levels, std::size_t num_layers,
             std::uint32_t states, const std::vector<double> &cost,
             const std::vector<std::uint32_t> &parent)
{
    HierarchicalResult result;
    result.plan.levels.assign(levels,
                              LevelPlan(num_layers, Parallelism::kData));

    std::uint32_t state = 0;
    double best = cost[0];
    for (std::uint32_t s = 1; s < states; ++s) {
        if (cost[s] < best) {
            best = cost[s];
            state = s;
        }
    }

    result.commBytes = best;
    for (std::size_t l = num_layers; l-- > 0;) {
        assignLayerFromState(result.plan, l, state);
        if (l > 0)
            state = parent[l * states + state];
    }
    return result;
}

} // namespace

OptimalPartitioner::OptimalPartitioner(const CommModel &model)
    : model_(&model)
{}

double
OptimalPartitioner::intraCost(std::size_t layer, std::uint32_t v,
                              std::size_t levels) const
{
    double total = 0.0;
    for (std::size_t h = 0; h < levels; ++h) {
        total += model_->levelWeight(h) *
                 model_->intraBytesAt(layer, choiceAt(v, h),
                                      dpAbove(v, h), mpAbove(v, h));
    }
    return total;
}

double
OptimalPartitioner::interCost(std::size_t layer, std::uint32_t v_l,
                              std::uint32_t v_next,
                              std::size_t levels) const
{
    double total = 0.0;
    for (std::size_t h = 0; h < levels; ++h) {
        total += model_->levelWeight(h) *
                 model_->interBytesAt(layer, choiceAt(v_l, h),
                                      choiceAt(v_next, h),
                                      dpAbove(v_l, h),
                                      dpAbove(v_next, h));
    }
    return total;
}

std::vector<double>
OptimalPartitioner::intraTable(std::size_t levels) const
{
    const std::size_t num_layers = model_->numLayers();
    const std::size_t states = std::size_t{1} << levels;
    const std::size_t cols = 2 * (levels + 1);
    const simd::Kernels &kern = simd::activeKernels();
    const std::vector<std::uint8_t> pcnt =
        buildPcnt(static_cast<std::uint32_t>(states));
    // Flat per-layer intra tables: intra[l * states + s], expanded one
    // level bit at a time from the per-level rows
    //
    //   rows[(h * 2 + b) * (levels + 1) + a] =
    //       levelWeight(h) * intraBytesAt(l, b, a, h - a),  a <= h
    //
    // (a = dpAbove(s, h), so h - a = mpAbove(s, h)). The expansion adds
    // the same products level-ascending from 0.0 that intraCost sums,
    // so every entry is bit-identical to the reference.
    std::vector<double> rows(levels * cols);
    std::vector<double> intra(num_layers * states);
    for (std::size_t l = 0; l < num_layers; ++l) {
        for (std::size_t h = 0; h < levels; ++h) {
            const double weight = model_->levelWeight(h);
            for (unsigned b = 0; b < 2; ++b)
                for (unsigned a = 0; a <= h; ++a)
                    rows[h * cols + b * (levels + 1) + a] =
                        weight *
                        model_->intraBytesAt(
                            l, b ? Parallelism::kModel : Parallelism::kData,
                            a, static_cast<unsigned>(h) - a);
        }
        expandStates(kern, &intra[l * states], rows.data(), pcnt.data(),
                     levels);
    }
    return intra;
}

HierarchicalResult
OptimalPartitioner::partition(std::size_t levels) const
{
    return partition(levels, SearchOptions{});
}

HierarchicalResult
OptimalPartitioner::partition(std::size_t levels,
                              const SearchOptions &options) const
{
    // Non-chain networks route to the series-parallel decomposition
    // search (core/series_parallel.hh), one exact scan whatever the
    // engine. Chains never enter it, so every historical chain result
    // is produced by the exact same code as before.
    if (!model_->network().isChain())
        return searchSeriesParallel(*model_, levels);
    SearchEngine engine = options.engine;
    if (engine == SearchEngine::kAuto)
        engine = levels <= kDenseMax ? SearchEngine::kDense
                                     : SearchEngine::kAStar;
    switch (engine) {
    case SearchEngine::kDense:
        return partitionDense(levels);
    case SearchEngine::kAStar:
        return partitionAStar(levels);
    case SearchEngine::kAuto:
        break;
    }
    util::fatal("OptimalPartitioner: unresolved search engine");
}

std::vector<double>
OptimalPartitioner::suffixTable(std::size_t levels) const
{
    if (!model_->network().isChain())
        util::fatal("OptimalPartitioner::suffixTable is chain-shaped "
                    "(per-transition terms); DAG networks have no "
                    "single successor per layer");
    if (levels > kWideMax)
        util::fatal("OptimalPartitioner: suffix bound capped at H = 16");
    const std::size_t num_layers = model_->numLayers();
    HYPAR_ASSERT(num_layers > 0, "suffix bound of an empty network");
    return suffixBound(*model_, levels, num_layers, intraTable(levels),
                       buildInterTables(*model_, levels));
}

HierarchicalResult
OptimalPartitioner::partitionDense(std::size_t levels) const
{
    if (levels > kDenseMax)
        util::fatal("OptimalPartitioner: 4^H transitions explode past "
                    "H = 10 (use SearchEngine::kAStar or kAuto)");

    // Below H = 3 the factored table holds more entries than the DP has
    // transitions, so the naive loop is cheaper. Results are identical.
    if (levels <= 2)
        return partitionReference(levels);

    const std::size_t num_layers = model_->numLayers();
    HYPAR_ASSERT(num_layers > 0, "partitioning an empty network");

    const std::uint32_t states = 1u << levels;
    auto &pool = util::ThreadPool::global();
    // Fixed chunking => identical chunk grids (and thus identical
    // per-state results) for every thread count; see thread_pool.hh.
    const std::size_t grain = pool.grainFor(states);

    const std::vector<double> intra = intraTable(levels);
    const simd::Kernels &kern = simd::activeKernels();
    const std::vector<std::uint8_t> pcnt = buildPcnt(states);

    // Chain DP: cost[s] = best total with layer l in level vector s.
    std::vector<double> cost(intra.begin(), intra.begin() + states);
    std::vector<std::uint32_t> parent(num_layers * states, 0);

    std::vector<double> next(states);
    for (std::size_t l = 1; l < num_layers; ++l) {
        // All inter terms of the l-1 -> l transition, keyed by level.
        const InterTermTable iterm(*model_, l - 1, levels);
        const double *intra_l = &intra[l * states];
        std::uint32_t *parent_l = &parent[l * states];

        pool.parallelFor(0, states, grain, [&](std::size_t s_begin,
                                               std::size_t s_end) {
            // trans[p] = interCost(l-1, p, s), built for all 2^H
            // predecessor states at once by expanding one level bit at
            // a time: after step h, trans[p_low] holds the partial sum
            // of the first h terms for the length-h prefix p_low. The
            // additions run in the same level-ascending order as
            // interCost, keeping every partial sum bit-identical.
            std::array<double, std::size_t{1} << kDenseMax> trans;
            std::array<const double *, kDenseMax> rows;

            for (std::size_t s = s_begin; s < s_end; ++s) {
                const auto sv = static_cast<std::uint32_t>(s);
                for (std::size_t h = 0; h < levels; ++h)
                    rows[h] = iterm.rowAt(h, (sv >> h) & 1u,
                                          dpAbove(sv, h));

                trans[0] = 0.0;
                for (std::size_t h = 0; h < levels; ++h) {
                    const double *row = rows[h];
                    const std::size_t half = std::size_t{1} << h;
                    kern.expandLevel(trans.data(), half, row,
                                     row + (levels + 1), pcnt.data(),
                                     static_cast<unsigned>(h));
                }

                // argminAdd's ascending strict < implements the shared
                // tie-break rule (core/tie_break.hh): dp-heavier
                // predecessor wins exact ties.
                double best;
                const std::uint32_t best_prev = kern.argminAdd(
                    cost.data(), trans.data(), states, &best);
                next[s] = best + intra_l[s];
                parent_l[s] = best_prev;
            }
        });
        cost.swap(next);
    }

    HierarchicalResult result =
        assemblePlan(levels, num_layers, states, cost, parent);
    result.transitionsEvaluated = static_cast<std::uint64_t>(states) *
                                  states * (num_layers - 1);
    result.stats.expanded =
        static_cast<std::uint64_t>(states) * num_layers;
    result.stats.certifiedExact = true; // exhaustive
    result.stats.widthUsed = states;
    // pruned stays 0: the dense engine skips no transitions, so its
    // dominance-skipped count is genuinely zero.
    return result;
}

HierarchicalResult
OptimalPartitioner::partitionAStar(std::size_t levels) const
{
    if (levels > kWideMax)
        util::fatal("OptimalPartitioner: A* engine capped at H = 16");
    if (levels <= 2)
        return partitionReference(levels);

    const std::size_t num_layers = model_->numLayers();
    HYPAR_ASSERT(num_layers > 0, "partitioning an empty network");

    const std::uint32_t states = 1u << levels;
    auto &pool = util::ThreadPool::global();
    const std::size_t grain = pool.grainFor(states);

    WideTables tables;
    tables.intra = intraTable(levels);
    tables.inter = buildInterTables(*model_, levels);
    tables.suffix =
        suffixBound(*model_, levels, num_layers, tables.intra,
                    tables.inter);

    // Incumbent: one narrow beam pass over the same tables. Its cost
    // is an *achieved* plan cost in the DP's own float semantics, so
    // it upper-bounds the optimum; after the (1 + slack) inflation,
    // `g + h > ub` proves no completion through the node can beat —
    // or exactly tie — the optimum, which is what keeps the surviving
    // search bit-identical to the dense DP (header, "admissible
    // suffix bound").
    const HierarchicalResult incumbent = beamPass(
        levels, num_layers,
        std::min<std::size_t>(kIncumbentBeamWidth, states), tables);
    const double ub = inflate(incumbent.commBytes);

    const std::vector<std::uint16_t> pcol = buildPcol(levels);
    // Popcount class of every state (number of mp bits).
    std::vector<std::uint8_t> pclass(states);
    for (std::uint32_t s = 0; s < states; ++s)
        pclass[s] = static_cast<std::uint8_t>(std::popcount(s));

    // Level-pair screen geometry. Levels are grouped in pairs
    // (0,1), (2,3), ...; per scanned node a small table P holds every
    // fl(rows[2j][colA] + rows[2j+1][colB]) over the *admissible*
    // columns of both levels (a <= h), so the per-candidate screen
    // sums `pairs` table entries instead of `levels` row entries. A
    // level-h row has only 2 * (h + 1) admissible columns, so the
    // whole table is ~3k doubles at H = 16 — it lives in L1 while the
    // packed candidate codes below stream past it. `rankOf` compacts
    // a full column index (pb * (H+1) + a) to pb * (h+1) + a.
    const std::size_t pairs = levels / 2;
    const bool odd_levels = (levels & 1) != 0;
    const std::size_t c2stride = pairs + (odd_levels ? 1 : 0);
    std::array<std::size_t, kWideMax / 2> pair_off{};
    std::array<std::size_t, kWideMax / 2> pair_wb{};
    std::size_t pair_total = 0;
    for (std::size_t j = 0; j < pairs; ++j) {
        const std::size_t wa = 2 * (2 * j + 1);
        const std::size_t wb = 2 * (2 * j + 2);
        pair_off[j] = pair_total;
        pair_wb[j] = wb;
        pair_total += wa * wb;
    }
    // colTab[h][r]: full column index of compact rank r at level h.
    std::vector<std::uint16_t> colTab(levels * 2 * (levels + 1));
    for (std::size_t h = 0; h < levels; ++h)
        for (std::size_t r = 0; r < 2 * (h + 1); ++r)
            colTab[h * 2 * (levels + 1) + r] = static_cast<std::uint16_t>(
                r <= h ? r : (levels + 1) + (r - (h + 1)));
    const auto rankOf = [&](std::uint16_t col, std::size_t h) {
        const std::uint16_t pb = col >= levels + 1 ? 1 : 0;
        const std::uint16_t a =
            static_cast<std::uint16_t>(col - pb * (levels + 1));
        return static_cast<std::uint16_t>(pb * (h + 1) + a);
    };
    // pcode2[p * c2stride + j]: p's flattened (rankA, rankB) into pair
    // j's table; the odd tail level's full column rides in the last
    // slot. Layer-invariant, packed into scan order each layer.
    std::vector<std::uint16_t> pcode2(std::size_t{states} * c2stride);
    for (std::uint32_t p = 0; p < states; ++p) {
        const std::uint16_t *pc = &pcol[std::size_t{p} * levels];
        std::uint16_t *code = &pcode2[std::size_t{p} * c2stride];
        for (std::size_t j = 0; j < pairs; ++j)
            code[j] = static_cast<std::uint16_t>(
                rankOf(pc[2 * j], 2 * j) * pair_wb[j] +
                rankOf(pc[2 * j + 1], 2 * j + 1));
        if (odd_levels)
            code[pairs] = pc[levels - 1];
    }

    const std::vector<double> &intra = tables.intra;
    std::vector<double> cost(intra.begin(), intra.begin() + states);
    std::vector<std::uint32_t> parent(num_layers * states, 0);
    std::vector<double> next(states);
    std::vector<std::uint8_t> dead(states, 0);
    std::vector<std::uint32_t> alive;
    // Class-conditioned predecessor keys: a target class is the
    // triple (top two level bits, popcount) — keyC[cls * na + i]
    // = cost[p] + (a lower bound on trans(p, s) valid for every
    // target s in the class) for the i-th live predecessor p, plus
    // one predecessor ordering per class. Conditioning on the two top
    // bits on top of the popcount pins the two heaviest addends
    // (weights 2^(H-1) + 2^(H-2), ~75% of the total level weight) to
    // their exact values in the bound.
    const std::size_t nclass = 4 * (levels + 1);
    const auto classOf = [&](std::uint32_t sv) {
        const std::uint32_t tt = (sv >> (levels - 2)) & 3u;
        return tt * (levels + 1) +
               static_cast<std::size_t>(std::popcount(sv));
    };
    // Scan-order packing of each class's sorted candidates: key, g,
    // state id, and pair-screen codes laid out contiguously in the
    // order the scan walks them. The hot loop then streams sequential
    // cache lines instead of gathering cost/key/column data from
    // state-indexed tables — the gathers, not the arithmetic, were
    // the measured bottleneck of the predecessor scan.
    //
    // The five scan buffers are sized for the widest possible layer
    // (na = 2^H live states) once per search and never value-
    // initialized: every entry a layer reads was written earlier in
    // that layer (keyC for every consistent class and live rank,
    // the ord* prefixes up to navailC), so no memset runs and only
    // the pages a search actually touches become resident.
    const std::size_t slots = nclass * std::size_t{states};
    const auto keyC = std::make_unique_for_overwrite<double[]>(slots);
    const auto ordKey = std::make_unique_for_overwrite<double[]>(slots);
    const auto ordCost = std::make_unique_for_overwrite<double[]>(slots);
    const auto ordP =
        std::make_unique_for_overwrite<std::uint32_t[]>(slots);
    const auto ordC2 =
        std::make_unique_for_overwrite<std::uint16_t[]>(slots * c2stride);
    std::vector<double> min_keyC(nclass);
    std::vector<std::size_t> navailC(nclass);
    std::uint64_t total_evaluated = incumbent.transitionsEvaluated;
    std::uint64_t expanded = 0;
    std::uint64_t pruned = 0;
    std::size_t width_used = 0;

    // Layer-0 frontier: a state whose certified completable cost
    // g + h already exceeds the incumbent can never be on an optimal
    // path; everything else stays live.
    alive.reserve(states);
    for (std::uint32_t s = 0; s < states; ++s)
        if (!(cost[s] + tables.suffix[s] > ub))
            alive.push_back(s);
    expanded += alive.size();
    pruned += states - alive.size();
    width_used = std::max(width_used, alive.size());

    // sAdd[(h * cols + col) * cols + sb * (H+1) + c]: the *exact*
    // level-h addend rowAt(h, sb, h - c)[col] of a transition whose
    // target picks sb at level h with exactly c mp bits below it, seen
    // from source column `col`. Slots with c > h stay +inf
    // (unreachable); every layer rewrites the same reachable slots, so
    // the +inf fill happens once per search. Indexing the factored
    // table by the target's exact dpAbove count — instead of
    // min-relaxing it away as the old per-column minima did — is what
    // conditions the class key DP below on *both* endpoint popcounts.
    const std::size_t cols = 2 * (levels + 1);
    std::vector<double> sAdd(levels * cols * cols,
                             std::numeric_limits<double>::infinity());
    // Per-class minimum of intra + suffix over the layer's targets, and
    // the key threshold derived from it (see the sort below).
    std::vector<double> minRest(nclass);
    std::vector<double> thrC(nclass);

    for (std::size_t l = 1; l < num_layers; ++l) {
        const InterTermTable &iterm = tables.inter[l - 1];
        const double *intra_l = &intra[l * states];
        const double *suffix_l = &tables.suffix[l * states];
        std::uint32_t *parent_l = &parent[l * states];

        for (std::size_t h = 0; h < levels; ++h)
            for (unsigned sb = 0; sb < 2; ++sb)
                for (unsigned b = 0; b <= h; ++b) {
                    const double *row = iterm.rowAt(h, sb, b);
                    const std::size_t c = h - b;
                    for (std::size_t col = 0; col < cols; ++col)
                        sAdd[(h * cols + col) * cols +
                             sb * (levels + 1) + c] = row[col];
                }

        // Assignment-aware predecessor keys, one per target class. A
        // target with pc mp bits forces *some* pc levels onto the
        // mp-side column of the factored table, so for each live
        // predecessor p a tiny count DP over levels —
        //
        //   f[c] after level h = cheapest transition prefix through
        //                        levels 0..h-1 at p's columns, over
        //                        targets with exactly c mp bits there
        //
        // — yields keyC[pc][p] = cost[p] + f[pc], a lower bound on
        // cost[p] + trans(p, s) for every target s with popcount pc.
        // The DP steps through the sAdd table, so every addend is the
        // *exact* factored entry for the target's (sb, dpAbove) at
        // that level — the pair-conditioned bound — and each realized
        // f is a level-ascending float sum of a real target's addends
        // with min-propagation, so the bound is exact in float.
        // Scanning each target's class order makes `keyC > best` an
        // early break that knows mp-heavy targets cannot be reached
        // for free — the per-level row minima alone collapse to ~0
        // because every level can pretend another one pays.
        HYPAR_ASSERT(!alive.empty(),
                     "A*: the bound pruned every live state");
        const std::size_t na = alive.size();
        const std::size_t agrain =
            std::max<std::size_t>(1, na / (4 * pool.parallelism()));
        pool.parallelFor(0, na, agrain, [&](std::size_t a_begin,
                                            std::size_t a_end) {
            std::array<double, kWideMax + 1> f;
            for (std::size_t i = a_begin; i < a_end; ++i) {
                const std::uint32_t p = alive[i];
                const std::uint16_t *pc = &pcol[std::size_t{p} * levels];
                f[0] = 0.0;
                for (std::size_t h = 0; h + 2 < levels; ++h) {
                    const double *sa0 =
                        &sAdd[(h * cols + pc[h]) * cols];
                    const double *sa1 = sa0 + (levels + 1);
                    f[h + 1] = f[h] + sa1[h];
                    for (std::size_t c = h; c > 0; --c)
                        f[c] = std::min(f[c] + sa0[c],
                                        f[c - 1] + sa1[c - 1]);
                    f[0] += sa0[0];
                }
                // Finalize per class: f covers levels 0..H-3; the
                // class fixes the two top bits (t14, t15) and the mp
                // count below them, so both heavy addends are added
                // exactly — still in level-ascending order.
                const double cost_p = cost[p];
                const double *sb0 = &sAdd[((levels - 2) * cols +
                                           pc[levels - 2]) *
                                          cols];
                const double *sb1 = sb0 + (levels + 1);
                const double *sa0 = &sAdd[((levels - 1) * cols +
                                           pc[levels - 1]) *
                                          cols];
                const double *sa1 = sa0 + (levels + 1);
                for (std::size_t tt = 0; tt < 4; ++tt) {
                    const std::size_t t14 = tt & 1;
                    const std::size_t t15 = tt >> 1;
                    const double *sb = t14 ? sb1 : sb0;
                    const double *sa = t15 ? sa1 : sa0;
                    double *key = &keyC[tt * (levels + 1) * na];
                    for (std::size_t cs = t14 + t15;
                         cs + 2 <= levels + t14 + t15; ++cs) {
                        const std::size_t cl = cs - t14 - t15;
                        key[cs * na + i] =
                            cost_p +
                            ((f[cl] + sb[cl]) + sa[cl + t14]);
                    }
                }
            }
        });
        // The scan's prefix cut accepts a candidate only while
        // (key + intra_l[s]) + suffix_l[s] <= ub for its node, so a
        // key beyond ub - min_s(intra + suffix) + margin can never be
        // reached by *any* node of the class — sorting and packing it
        // is pure waste. The 1e-6-relative margin dwarfs the ~4-ulp
        // float drift between the two association orders, so every
        // excluded key provably fails the scan predicate for every
        // node; over-inclusion near the cut only lengthens the sorted
        // prefix, never changes what the scan visits.
        std::fill(minRest.begin(), minRest.end(),
                  std::numeric_limits<double>::infinity());
        for (std::uint32_t s = 0; s < states; ++s) {
            double &m = minRest[classOf(s)];
            m = std::min(m, intra_l[s] + suffix_l[s]);
        }
        for (std::size_t c = 0; c < nclass; ++c)
            thrC[c] = std::isfinite(ub)
                          ? (ub - minRest[c]) + 1e-6 * std::abs(ub)
                          : std::numeric_limits<double>::infinity();
        pool.parallelFor(
            0, nclass, 1, [&](std::size_t c_begin, std::size_t c_end) {
                // Trivial records, so the buffer skips a zero fill of
                // all na entries when the cut keeps only a prefix.
                struct Keyed
                {
                    double key;
                    std::uint32_t p;
                };
                const auto tmp = std::make_unique_for_overwrite<Keyed[]>(na);
                for (std::size_t c = c_begin; c < c_end; ++c) {
                    // Classes whose popcount is inconsistent with
                    // their top-bit pattern contain no targets; skip
                    // their sort and leave them unused.
                    const std::size_t tt = c / (levels + 1);
                    const std::size_t cs = c % (levels + 1);
                    const std::size_t tbits =
                        (tt & 1) + (tt >> 1);
                    if (cs < tbits || cs - tbits > levels - 2) {
                        min_keyC[c] =
                            std::numeric_limits<double>::infinity();
                        navailC[c] = 0;
                        continue;
                    }
                    const double *keyc = &keyC[c * na];
                    const double thr = thrC[c];
                    double mk = std::numeric_limits<double>::infinity();
                    std::size_t m = 0;
                    for (std::size_t i = 0; i < na; ++i) {
                        const std::uint32_t p = alive[i];
                        const double key = keyc[i];
                        mk = std::min(mk, key);
                        if (key <= thr)
                            tmp[m++] = {key, p};
                    }
                    min_keyC[c] = mk;
                    navailC[c] = m;
                    std::sort(tmp.get(), tmp.get() + m,
                              [](const Keyed &x, const Keyed &y) {
                                  return better(x.key, x.p, y.key, y.p);
                              });
                    double *okey = &ordKey[c * na];
                    double *ocost = &ordCost[c * na];
                    std::uint32_t *op = &ordP[c * na];
                    std::uint16_t *oc2 = &ordC2[c * na * c2stride];
                    for (std::size_t k = 0; k < m; ++k) {
                        const std::uint32_t p = tmp[k].p;
                        okey[k] = tmp[k].key;
                        ocost[k] = cost[p];
                        op[k] = p;
                        std::memcpy(&oc2[k * c2stride],
                                    &pcode2[std::size_t{p} * c2stride],
                                    c2stride * sizeof(std::uint16_t));
                    }
                }
            });
        // Cheapest live g per predecessor class: pairs with the
        // per-target pred-class bound lbc[] below for a node precheck
        // that knows *which* class the cheap predecessors live in.
        std::array<double, kWideMax + 1> minCostC;
        minCostC.fill(std::numeric_limits<double>::infinity());
        for (const std::uint32_t p : alive) {
            double &m = minCostC[pclass[p]];
            m = std::min(m, cost[p]);
        }

        // One chunk of nodes; returns its screened-candidate count,
        // kept in a local so the chunks share no counter line
        // (thread_pool.hh, per-chunk slots).
        auto scan = [&](std::size_t s_begin, std::size_t s_end) {
            std::uint64_t count = 0;
            std::array<const double *, kWideMax> rows;
            std::array<double, kWideMax + 1> lbc;
            std::array<double, 2976> P; // level-pair sums, H = 16 max

            for (std::size_t s = s_begin; s < s_end; ++s) {
                const auto sv = static_cast<std::uint32_t>(s);
                const std::size_t pc_s = classOf(sv);

                // Cheap node precheck first: if even the cheapest
                // live class key plus this node's intra and suffix
                // bound cannot reach the incumbent, prune the node
                // without touching its rows at all.
                if ((min_keyC[pc_s] + intra_l[s]) + suffix_l[s] > ub) {
                    next[s] = std::numeric_limits<double>::infinity();
                    parent_l[s] = 0;
                    dead[s] = 1;
                    continue;
                }

                for (std::size_t h = 0; h < levels; ++h) {
                    const unsigned sb = (sv >> h) & 1u;
                    const unsigned b = dpAbove(sv, h);
                    rows[h] = iterm.rowAt(h, sb, b);
                }

                // The target-side mirror of keyC: a count DP over the
                // *predecessor's* mp bits through this target's exact
                // rows — lbc[c] lower-bounds trans(p, s) for every
                // predecessor p with popcount c. Same float-exactness
                // argument as keyC (level-ascending sums of real
                // addends with min-propagation), and strictly tighter
                // than the old per-row minima, which let every level
                // pick its column independently.
                lbc[0] = 0.0;
                for (std::size_t h = 0; h < levels; ++h) {
                    const double *r = rows[h];
                    const double *r1 = r + (levels + 1);
                    lbc[h + 1] = lbc[h] + r1[0];
                    for (std::size_t c = h; c > 0; --c)
                        lbc[c] = std::min(lbc[c] + r[h - c],
                                          lbc[c - 1] + r1[h - c + 1]);
                    lbc[0] += r[h];
                }

                // Second precheck: the cheapest live g *within each
                // predecessor class*, plus that class's transition
                // bound, keyed to this node. Each chain is single
                // additions dominated addend-wise by a real
                // relaxation, so the comparison is safe.
                double pre = std::numeric_limits<double>::infinity();
                for (std::size_t c = 0; c <= levels; ++c)
                    pre = std::min(pre, minCostC[c] + lbc[c]);
                if ((pre + intra_l[s]) + suffix_l[s] > ub) {
                    next[s] = std::numeric_limits<double>::infinity();
                    parent_l[s] = 0;
                    dead[s] = 1;
                    continue;
                }

                const double *okey = &ordKey[pc_s * na];
                const double *ocost = &ordCost[pc_s * na];
                const std::uint32_t *op = &ordP[pc_s * na];
                const std::uint16_t *oc2 = &ordC2[pc_s * na * c2stride];

                // Incumbent break, hoisted out of the loop: the packed
                // keys ascend, so the first candidate whose bound
                // chain overshoots ub is a fixed prefix boundary —
                // binary-search it with the *same* float expression
                // the per-candidate break used. Cutting the scan there
                // may leave this node's cost above its dense value,
                // but never for a node on an optimal path (whose dense
                // argmin predecessor chain stays <= ub and therefore
                // sits inside the prefix).
                std::size_t blo = 0, bhi = navailC[pc_s];
                while (blo < bhi) {
                    const std::size_t mid = blo + (bhi - blo) / 2;
                    if ((okey[mid] + intra_l[s]) + suffix_l[s] > ub)
                        bhi = mid;
                    else
                        blo = mid + 1;
                }
                const std::size_t kmax = blo;

                // Level-pair screen table: every admissible two-level
                // partial sum fl(rows[2j][colA] + rows[2j+1][colB]),
                // built once per node (~3k adds) when the scan prefix
                // is long enough to amortize it, then hit `pairs`
                // times per candidate instead of `levels`.
                const bool use_pairs = kmax >= kPairScreenMin;
                if (use_pairs) {
                    for (std::size_t j = 0; j < pairs; ++j) {
                        const double *rowA = rows[2 * j];
                        const double *rowB = rows[2 * j + 1];
                        const std::uint16_t *ctA =
                            &colTab[(2 * j) * 2 * (levels + 1)];
                        const std::uint16_t *ctB =
                            &colTab[(2 * j + 1) * 2 * (levels + 1)];
                        const std::size_t wa = 2 * (2 * j + 1);
                        const std::size_t wb = pair_wb[j];
                        double *dst = &P[pair_off[j]];
                        for (std::size_t ra = 0; ra < wa; ++ra) {
                            const double va = rowA[ctA[ra]];
                            for (std::size_t rb = 0; rb < wb; ++rb)
                                dst[ra * wb + rb] = va + rowB[ctB[rb]];
                        }
                    }
                }
                const double *tail_row =
                    odd_levels ? rows[levels - 1] : nullptr;

                double best = std::numeric_limits<double>::infinity();
                std::uint32_t best_prev = 0;
                for (std::size_t k = 0; k < kmax; ++k) {
                    if (okey[k] > best)
                        break; // every later p bounds at least as high
                    // Fast screen: re-associate the same non-negative
                    // addends (two-level pair sums when the table is
                    // built, four independent accumulators otherwise).
                    // The re-associated value differs from the
                    // canonical ascending-order sum by < 2H * 2^-53
                    // relative, so deflating it by kScreenSlack makes
                    // `cost + t_deflated > best` a proof the candidate
                    // loses; only the few candidates near the
                    // incumbent re-run the exact level-ascending sum
                    // that bit-identity requires.
                    double tfast;
                    if (use_pairs) {
                        const std::uint16_t *code = &oc2[k * c2stride];
                        double t0 = 0.0, t1 = 0.0;
                        std::size_t j = 0;
                        for (; j + 2 <= pairs; j += 2) {
                            t0 += P[pair_off[j] + code[j]];
                            t1 += P[pair_off[j + 1] + code[j + 1]];
                        }
                        if (j < pairs)
                            t0 += P[pair_off[j] + code[j]];
                        if (tail_row)
                            t1 += tail_row[code[pairs]];
                        tfast = t0 + t1;
                    } else {
                        const std::uint16_t *pc =
                            &pcol[std::size_t{op[k]} * levels];
                        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
                        std::size_t h = 0;
                        for (; h + 4 <= levels; h += 4) {
                            t0 += rows[h][pc[h]];
                            t1 += rows[h + 1][pc[h + 1]];
                            t2 += rows[h + 2][pc[h + 2]];
                            t3 += rows[h + 3][pc[h + 3]];
                        }
                        for (; h < levels; ++h)
                            t0 += rows[h][pc[h]];
                        tfast = (t0 + t1) + (t2 + t3);
                    }
                    ++count;
                    if (ocost[k] + tfast * kScreenSlack > best)
                        continue;
                    const std::uint32_t p = op[k];
                    const std::uint16_t *pc =
                        &pcol[std::size_t{p} * levels];
                    double t = 0.0;
                    for (std::size_t hh = 0; hh < levels; ++hh)
                        t += rows[hh][pc[hh]];
                    const double c = ocost[k] + t;
                    if (better(c, p, best, best_prev)) {
                        best = c;
                        best_prev = p;
                    }
                }
                const double g = best + intra_l[s];
                next[s] = g;
                parent_l[s] = best_prev;
                dead[s] = g + suffix_l[s] > ub ? 1 : 0;
            }
            return count;
        };
        total_evaluated += pool.parallelReduce(
            std::size_t{0}, std::size_t{states}, grain, std::uint64_t{0},
            scan, std::plus<>());

        alive.clear();
        for (std::uint32_t s = 0; s < states; ++s)
            if (!dead[s])
                alive.push_back(s);
        expanded += alive.size();
        pruned += states - alive.size();
        width_used = std::max(width_used, alive.size());
        cost.swap(next);
    }

    HierarchicalResult result =
        assemblePlan(levels, num_layers, states, cost, parent);
    result.transitionsEvaluated = total_evaluated;
    result.stats.expanded = expanded;
    result.stats.pruned = pruned;
    result.stats.certifiedExact = true; // exact by construction
    result.stats.widthUsed = width_used;
    return result;
}

HierarchicalResult
OptimalPartitioner::partitionReference(std::size_t levels) const
{
    if (!model_->network().isChain())
        util::fatal("OptimalPartitioner::partitionReference is "
                    "chain-only; DAG networks are checked against the "
                    "flat enumeration oracle (bruteForceHierarchical)");
    if (levels > kDenseMax)
        util::fatal("OptimalPartitioner: 4^H transitions explode past "
                    "H = 10");

    const std::size_t num_layers = model_->numLayers();
    HierarchicalResult result;
    result.plan.levels.assign(levels,
                              LevelPlan(num_layers, Parallelism::kData));
    result.stats.certifiedExact = true; // exhaustive
    result.stats.widthUsed = std::size_t{1} << levels;
    result.stats.expanded =
        static_cast<std::uint64_t>(result.stats.widthUsed) * num_layers;
    if (levels == 0)
        return result;

    const std::uint32_t states = 1u << levels;
    // Every transition is evaluated: the dense engine's count.
    result.transitionsEvaluated = static_cast<std::uint64_t>(states) *
                                  states * (num_layers - 1);

    std::vector<double> cost(states);
    std::vector<std::vector<std::uint32_t>> parent(
        num_layers, std::vector<std::uint32_t>(states, 0));

    for (std::uint32_t s = 0; s < states; ++s)
        cost[s] = intraCost(0, s, levels);

    for (std::size_t l = 1; l < num_layers; ++l) {
        std::vector<double> next(states,
                                 std::numeric_limits<double>::infinity());
        for (std::uint32_t s = 0; s < states; ++s) {
            double best = std::numeric_limits<double>::infinity();
            std::uint32_t best_prev = 0;
            for (std::uint32_t p = 0; p < states; ++p) {
                const double c =
                    cost[p] + interCost(l - 1, p, s, levels);
                if (c < best) {
                    best = c;
                    best_prev = p;
                }
            }
            next[s] = best + intraCost(l, s, levels);
            parent[l][s] = best_prev;
        }
        cost = std::move(next);
    }

    std::uint32_t state = 0;
    double best = cost[0];
    for (std::uint32_t s = 1; s < states; ++s) {
        if (cost[s] < best) {
            best = cost[s];
            state = s;
        }
    }

    result.commBytes = best;
    for (std::size_t l = num_layers; l-- > 0;) {
        assignLayerFromState(result.plan, l, state);
        if (l > 0)
            state = parent[l][state];
    }
    return result;
}

} // namespace hypar::core
