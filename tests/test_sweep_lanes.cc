/**
 * @file
 * Differential tests of the sweep's kernel pair (sim::sweepMasksScalar
 * vs sim::sweepMasksAvx2), called directly on the same slot program:
 *
 *  - every zoo chain x htree/torus/mesh x overlap on/off x pristine and
 *    faulted (a slow node, so computeScale > 1, plus a slow link where
 *    the topology models link faults) x every swept level at H = 8 —
 *    the AVX2 lanes must visit the masks in ascending order with every
 *    StepMetrics field bit-identical to the scalar replay, and for
 *    chains of at most 11 layers both must equal a full evaluate() of
 *    the substituted plan. Chains of up to 11 layers are compared on
 *    every mask; longer ones (VGG-B..E, up to 2^19 masks per sweep) on
 *    seeded windows that reach every row's variants (windowsOf);
 *  - specs with 1, 2 and 3 layers, the fewer-than-4-masks and
 *    first-group edges, through sweepNeighborhood's dispatch;
 *  - randomized synthetic programs whose rows the zoo never produces:
 *    absent variants carrying non-zero values, an asynchronous
 *    exchange followed by a partly absent synchronous one (the only
 *    way a skipped task is visible on the tapes), zero, infinite and
 *    NaN durations (the only inputs on which std::max's operand order
 *    is visible).
 *
 * activeKernels() caches HYPAR_SIMD in a static, so the dispatch is
 * fixed per process; calling the pair directly is what lets one run
 * compare both. CI also reruns this binary under HYPAR_SIMD=scalar.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "arch/fault_map.hh"
#include "core/plan.hh"
#include "core/simd_kernels.hh"
#include "dnn/model_zoo.hh"
#include "dnn/spec_parser.hh"
#include "sim/evaluator.hh"

using namespace hypar;
using core::HierarchicalPlan;
using sim::StepMetrics;
using sim::SweepProgram;
using sim::SweepRow;
using sim::TopologyKind;

namespace {

/** Every field of two StepMetrics, compared as bit patterns. */
void
expectSameBits(const StepMetrics &got, const StepMetrics &want,
               const std::string &context)
{
    const auto bits = [](double x) {
        return std::bit_cast<std::uint64_t>(x);
    };
    EXPECT_EQ(bits(got.stepSeconds), bits(want.stepSeconds)) << context;
    EXPECT_EQ(bits(got.computeBusySeconds), bits(want.computeBusySeconds))
        << context;
    EXPECT_EQ(bits(got.networkBusySeconds), bits(want.networkBusySeconds))
        << context;
    EXPECT_EQ(bits(got.commBytes), bits(want.commBytes)) << context;
    EXPECT_EQ(bits(got.phases.forward), bits(want.phases.forward))
        << context;
    EXPECT_EQ(bits(got.phases.backward), bits(want.phases.backward))
        << context;
    EXPECT_EQ(bits(got.phases.gradient), bits(want.phases.gradient))
        << context;
    EXPECT_EQ(bits(got.energy.computeJ), bits(want.energy.computeJ))
        << context;
    EXPECT_EQ(bits(got.energy.sramJ), bits(want.energy.sramJ)) << context;
    EXPECT_EQ(bits(got.energy.dramJ), bits(want.energy.dramJ)) << context;
    EXPECT_EQ(bits(got.energy.commJ), bits(want.energy.commJ)) << context;
}

/** Masks [first, last) of one sweep. */
struct Window
{
    std::uint64_t first;
    std::uint64_t last;
};

/**
 * The masks a zoo sweep is compared on: all of them up to 2^11 masks;
 * beyond that the first and last 512 plus 16 seeded windows of 64 in
 * between, so every row's variants, high parts included, are reached
 * without scoring 2^19 masks per configuration. Whole 4-mask groups.
 */
std::vector<Window>
windowsOf(const SweepProgram &program, std::mt19937_64 &rng)
{
    const std::uint64_t masks = program.numMasks();
    if (masks <= 2048)
        return {{0, masks}};
    std::vector<Window> windows = {{0, 512}, {masks - 512, masks}};
    for (int w = 0; w < 16; ++w) {
        const std::uint64_t first = 512 + 64 * (rng() % ((masks - 1088) / 64));
        windows.push_back({first, first + 64});
    }
    return windows;
}

/** Run one kernel over a window, checking the ascending visit order. */
template <typename Kernel>
std::vector<StepMetrics>
collect(Kernel kernel, const SweepProgram &program, Window w,
        const std::string &context)
{
    std::vector<StepMetrics> out;
    out.reserve(w.last - w.first);
    kernel(program, w.first, w.last,
           [&](std::uint64_t mask, const StepMetrics &m) {
               EXPECT_EQ(mask, w.first + out.size())
                   << context << ": visit order";
               out.push_back(m);
           });
    EXPECT_EQ(out.size(), w.last - w.first) << context;
    return out;
}

std::vector<StepMetrics>
scalarSweep(const SweepProgram &program, Window w,
            const std::string &context)
{
    return collect(
        [](const SweepProgram &p, std::uint64_t first, std::uint64_t last,
           const sim::SweepVisit &v) {
            sim::sweepMasksScalar(p, first, last, v);
        },
        program, w, context);
}

/** Lanes vs scalar over one window; returns the scalar results. */
std::vector<StepMetrics>
expectLanesMatchScalar(const SweepProgram &program, Window w,
                       const std::string &context)
{
    std::vector<StepMetrics> scalar = scalarSweep(program, w, context);
    if (core::simd::avx2Available() && program.numMasks() >= 4) {
        const std::vector<StepMetrics> lanes =
            collect(sim::sweepMasksAvx2, program, w, context);
        for (std::size_t i = 0; i < scalar.size() && i < lanes.size(); ++i)
            expectSameBits(lanes[i], scalar[i],
                           context + " mask " +
                               std::to_string(w.first + i));
    }
    return scalar;
}

/**
 * Window results against evaluate() of the substituted plan, on every
 * `stride`-th mask (a stride of 7 still reaches all four lanes).
 */
void
expectMatchesEvaluate(const sim::Evaluator &ev, HierarchicalPlan plan,
                      std::size_t level, Window w,
                      const std::vector<StepMetrics> &results,
                      std::uint64_t stride, const std::string &context)
{
    const std::size_t layers = ev.network().size();
    for (std::uint64_t mask = w.first; mask < w.last; mask += stride) {
        plan.levels[level] = core::levelPlanFromMask(mask, layers);
        expectSameBits(results[mask - w.first], ev.evaluate(plan),
                       context + " evaluate mask " + std::to_string(mask));
    }
}

std::string
kindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::kHTree:
        return "htree";
      case TopologyKind::kTorus:
        return "torus";
      default:
        return "mesh";
    }
}

} // namespace

// A slot on layer >= 2 varies with the group's high part only, a slot
// on layer 0 or 1 across the lanes. The zoo at H = 8 reaches every such
// slot shape, on all three topologies, with and without the async
// gradient tape, pristine and degraded.
TEST(SweepLanes, ZooChainsMatchScalarAtH8)
{
    std::mt19937_64 rng(8);
    for (const std::string &name : dnn::allModelNames()) {
        const dnn::Network net = dnn::modelByName(name);
        if (!net.isChain())
            continue;
        for (const TopologyKind kind :
             {TopologyKind::kHTree, TopologyKind::kTorus,
              TopologyKind::kMesh}) {
            for (const bool overlap : {false, true}) {
                for (const bool faulted : {false, true}) {
                    sim::SimConfig cfg;
                    cfg.levels = 8;
                    cfg.topology = kind;
                    cfg.options.overlapGradComm = overlap;
                    if (faulted) {
                        cfg.faults.nodes = {{3, 0.5}};
                        if (kind != TopologyKind::kMesh)
                            cfg.faults.links = {{0, 0.5}};
                    }
                    const sim::Evaluator ev(net, cfg);
                    const HierarchicalPlan base =
                        ev.plan(core::Strategy::kHypar);
                    for (std::size_t level = 0; level < cfg.levels;
                         ++level) {
                        const std::string context =
                            name + " " + kindName(kind) +
                            (overlap ? " overlap" : "") +
                            (faulted ? " faulted" : "") + " level " +
                            std::to_string(level);
                        const SweepProgram program =
                            ev.simulator().sweepProgram(base, level);
                        for (const Window w : windowsOf(program, rng)) {
                            const auto scalar = expectLanesMatchScalar(
                                program, w, context);
                            if (net.size() <= 11)
                                expectMatchesEvaluate(
                                    ev, base, level, w, scalar,
                                    net.size() <= 8 ? 1 : 7, context);
                        }
                    }
                }
            }
        }
    }
}

// One, two and three layers: 2 masks (the scalar kernel only), one
// 4-mask group, and two groups whose second has a non-zero high part
// on layer 2. sweepNeighborhood dispatches on its own here; its
// visits must equal evaluate() and the kernels must agree.
TEST(SweepLanes, OneTwoAndThreeLayerSpecs)
{
    const std::string layers[] = {"fc f1 64\n", "fc f2 48\n",
                                  "fc f3 10 act none\n"};
    for (std::size_t count = 1; count <= 3; ++count) {
        std::string spec = "network tiny\ninput 1 8 8\n";
        for (std::size_t l = 0; l < count; ++l)
            spec += layers[l];
        const dnn::Network net = dnn::parseNetworkSpec(spec);
        ASSERT_EQ(net.size(), count);
        for (const bool overlap : {false, true}) {
            sim::SimConfig cfg;
            cfg.levels = 8;
            cfg.options.overlapGradComm = overlap;
            const sim::Evaluator ev(net, cfg);
            const HierarchicalPlan base = ev.plan(core::Strategy::kHypar);
            for (std::size_t level = 0; level < cfg.levels; ++level) {
                const std::string context =
                    std::to_string(count) + " layers" +
                    (overlap ? " overlap" : "") + " level " +
                    std::to_string(level);
                const SweepProgram program =
                    ev.simulator().sweepProgram(base, level);
                expectLanesMatchScalar(program, {0, program.numMasks()},
                                       context);
                std::vector<StepMetrics> dispatched;
                ev.sweepNeighborhood(
                    base, level,
                    [&](std::uint64_t mask, const StepMetrics &m) {
                        EXPECT_EQ(mask, dispatched.size()) << context;
                        dispatched.push_back(m);
                    });
                ASSERT_EQ(dispatched.size(), std::size_t{1} << count);
                expectMatchesEvaluate(ev, base, level,
                                      {0, program.numMasks()}, dispatched,
                                      1, context);
            }
        }
    }
}

// Rows the zoo cannot produce. Absent variants hold junk (so a lane
// that adds instead of keeping its old value is caught), async
// exchanges run ahead of partly absent synchronous ones (so a skipped
// task that still joined the clocks is caught), and durations include
// zero, infinity and NaN (so a max that returns the other operand on
// an unordered compare is caught).
TEST(SweepLanes, SyntheticProgramsMatchBitForBit)
{
    if (!core::simd::avx2Available())
        GTEST_SKIP() << "no AVX2 on this CPU";
    std::mt19937_64 rng(20261017);
    const double specials[] = {0.0, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
    std::uniform_real_distribution<double> value(0.0, 4.0);
    for (int trial = 0; trial < 400; ++trial) {
        SweepProgram program;
        program.numLayers = 2 + rng() % 5;
        const std::size_t rows = 1 + rng() % 24;
        for (std::size_t i = 0; i < rows; ++i) {
            SweepRow r;
            r.layer = static_cast<std::uint32_t>(rng() % program.numLayers);
            r.bits = (rng() % 2 == 0 || r.layer + 1 == program.numLayers)
                         ? 1u
                         : 3u;
            r.kind = static_cast<SweepRow::Kind>(rng() % 3);
            r.phase = static_cast<std::uint8_t>(rng() % 3);
            for (std::uint32_t j = 0; j < 4; ++j) {
                const auto v =
                    static_cast<std::int32_t>((j >> r.layer) & r.bits);
                r.lanes[2 * j] = 2 * v;
                r.lanes[2 * j + 1] = 2 * v + 1;
            }
            for (int v = 0; v < 4; ++v) {
                r.present[v] = rng() % 3 == 0 ? 0 : ~std::uint64_t{0};
                r.seconds[v] = rng() % 16 == 0 ? specials[rng() % 3]
                                               : value(rng);
                r.computeJ[v] = value(rng);
                r.sramJOrBytes[v] = value(rng);
                r.dramJOrCommJ[v] = value(rng);
            }
            program.rows.push_back(r);
        }
        expectLanesMatchScalar(program, {0, program.numMasks()},
                               "trial " + std::to_string(trial));
    }
}
