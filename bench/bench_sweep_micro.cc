/**
 * @file
 * Micro benchmarks for the batched / incremental design-space sweep
 * paths of sim::Evaluator (the Fig. 9/10 simulation grids), in
 * google-benchmark harness form so `bench_sweep_json` can emit
 * BENCH_sweep.json for tools/bench_report.py.
 *
 * Naming follows the partitioner micro benches: BM_Foo is the
 * optimized path (evaluateBatch on the thread pool, sweepNeighborhood),
 * BM_FooReference is the sequential evaluate()-per-point loop the
 * fig9/fig10 benches used to run. Both sides score the identical grid
 * and fold the step times into a checksum, so the report's speedup
 * pairs compare equal work — and the differential tests
 * (tests/test_evaluator_batch.cc) guarantee equal *results*.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "bench_common.hh"
#include "core/plan.hh"
#include "dnn/model_zoo.hh"

using namespace hypar;

namespace {

void
BM_Fig10VggaGridReference(benchmark::State &state)
{
    const dnn::Network vgg_a = dnn::makeVggA();
    const sim::Evaluator ev(vgg_a, sim::SimConfig{});
    const auto grid = bench::fig10Grid(ev);

    for (auto _ : state) {
        double checksum = 0.0;
        for (const auto &plan : grid)
            checksum += ev.evaluate(plan).stepSeconds;
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_Fig10VggaGridReference)->Unit(benchmark::kMillisecond);

void
BM_Fig10VggaGrid(benchmark::State &state)
{
    const dnn::Network vgg_a = dnn::makeVggA();
    const sim::Evaluator ev(vgg_a, sim::SimConfig{});
    const auto grid = bench::fig10Grid(ev);

    for (auto _ : state) {
        const auto metrics = ev.evaluateBatch(grid);
        double checksum = 0.0;
        for (const auto &m : metrics)
            checksum += m.stepSeconds;
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_Fig10VggaGrid)->Unit(benchmark::kMillisecond);

void
BM_Fig9LenetSweepReference(benchmark::State &state)
{
    const dnn::Network lenet = dnn::makeLenetC();
    const sim::Evaluator ev(lenet, sim::SimConfig{});
    const std::size_t layers = lenet.size();
    core::HierarchicalPlan scaffold =
        ev.plan(core::Strategy::kHypar);

    for (auto _ : state) {
        double checksum = 0.0;
        for (std::uint64_t h1 = 0; h1 < (1u << layers); ++h1) {
            scaffold.levels[0] = core::levelPlanFromMask(h1, layers);
            for (std::uint64_t h4 = 0; h4 < (1u << layers); ++h4) {
                scaffold.levels[3] =
                    core::levelPlanFromMask(h4, layers);
                checksum += ev.evaluate(scaffold).stepSeconds;
            }
        }
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_Fig9LenetSweepReference)->Unit(benchmark::kMillisecond);

void
BM_Fig9LenetSweep(benchmark::State &state)
{
    const dnn::Network lenet = dnn::makeLenetC();
    const sim::Evaluator ev(lenet, sim::SimConfig{});
    const std::size_t layers = lenet.size();
    core::HierarchicalPlan scaffold =
        ev.plan(core::Strategy::kHypar);

    for (auto _ : state) {
        double checksum = 0.0;
        for (std::uint64_t h1 = 0; h1 < (1u << layers); ++h1) {
            scaffold.levels[0] = core::levelPlanFromMask(h1, layers);
            ev.sweepNeighborhood(
                scaffold, 3,
                [&](std::uint64_t, const sim::StepMetrics &m) {
                    checksum += m.stepSeconds;
                });
        }
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_Fig9LenetSweep)->Unit(benchmark::kMillisecond);

/** Overlap-mode Fig. 9 pair: the same 256-point H1 x H4 LeNet grid
 *  under SimOptions::overlapGradComm. The reference is the per-mask
 *  simulate() loop the overlap sweep used to fall back to; the
 *  optimized side is the two-tape incremental replay, which should
 *  land within ~2x of the non-overlap incremental path. */
void
BM_Fig9LenetSweepOverlapReference(benchmark::State &state)
{
    const dnn::Network lenet = dnn::makeLenetC();
    sim::SimConfig cfg;
    cfg.options.overlapGradComm = true;
    const sim::Evaluator ev(lenet, cfg);
    const std::size_t layers = lenet.size();
    core::HierarchicalPlan scaffold = ev.plan(core::Strategy::kHypar);

    for (auto _ : state) {
        double checksum = 0.0;
        for (std::uint64_t h1 = 0; h1 < (1u << layers); ++h1) {
            scaffold.levels[0] = core::levelPlanFromMask(h1, layers);
            for (std::uint64_t h4 = 0; h4 < (1u << layers); ++h4) {
                scaffold.levels[3] =
                    core::levelPlanFromMask(h4, layers);
                checksum += ev.evaluate(scaffold).stepSeconds;
            }
        }
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_Fig9LenetSweepOverlapReference)
    ->Unit(benchmark::kMillisecond);

void
BM_Fig9LenetSweepOverlap(benchmark::State &state)
{
    const dnn::Network lenet = dnn::makeLenetC();
    sim::SimConfig cfg;
    cfg.options.overlapGradComm = true;
    const sim::Evaluator ev(lenet, cfg);
    const std::size_t layers = lenet.size();
    core::HierarchicalPlan scaffold = ev.plan(core::Strategy::kHypar);

    for (auto _ : state) {
        double checksum = 0.0;
        for (std::uint64_t h1 = 0; h1 < (1u << layers); ++h1) {
            scaffold.levels[0] = core::levelPlanFromMask(h1, layers);
            ev.sweepNeighborhood(
                scaffold, 3,
                [&](std::uint64_t, const sim::StepMetrics &m) {
                    checksum += m.stepSeconds;
                });
        }
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_Fig9LenetSweepOverlap)->Unit(benchmark::kMillisecond);

/**
 * One single-level sweep at H = 8, the unit of the serving tier's
 * `sweep` op: all 2^L masks of the innermost level of HyPar's plan.
 * BM_SweepH8 is sweepNeighborhood (AVX2 lanes where the CPU has them);
 * BM_SweepH8Reference replays the same slot program through the
 * scalar kernel directly, so the pair isolates the lanes on one box.
 * ns_per_mask is wall time over the masks scored.
 */
template <bool kReference>
void
sweepH8(benchmark::State &state, const dnn::Network &net)
{
    sim::SimConfig cfg;
    cfg.levels = 8;
    const sim::Evaluator ev(net, cfg);
    const auto base = ev.plan(core::Strategy::kHypar);
    const std::size_t level = cfg.levels - 1;
    const auto masks = std::uint64_t{1} << net.size();

    std::chrono::nanoseconds elapsed{0};
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        double checksum = 0.0;
        const sim::SweepVisit visit = [&](std::uint64_t,
                                          const sim::StepMetrics &m) {
            checksum += m.stepSeconds;
        };
        if (kReference)
            sim::sweepMasksScalar(ev.simulator().sweepProgram(base, level),
                                  0, masks, visit);
        else
            ev.sweepNeighborhood(base, level, visit);
        benchmark::DoNotOptimize(checksum);
        elapsed += std::chrono::steady_clock::now() - start;
    }
    state.counters["ns_per_mask"] =
        static_cast<double>(elapsed.count()) /
        (static_cast<double>(masks) *
         static_cast<double>(state.iterations()));
}

void
BM_SweepVggaH8Reference(benchmark::State &state)
{
    sweepH8<true>(state, dnn::makeVggA());
}
BENCHMARK(BM_SweepVggaH8Reference)->Unit(benchmark::kMillisecond);

void
BM_SweepVggaH8(benchmark::State &state)
{
    sweepH8<false>(state, dnn::makeVggA());
}
BENCHMARK(BM_SweepVggaH8)->Unit(benchmark::kMillisecond);

void
BM_SweepLenetH8Reference(benchmark::State &state)
{
    sweepH8<true>(state, dnn::makeLenetC());
}
BENCHMARK(BM_SweepLenetH8Reference)->Unit(benchmark::kMicrosecond);

void
BM_SweepLenetH8(benchmark::State &state)
{
    sweepH8<false>(state, dnn::makeLenetC());
}
BENCHMARK(BM_SweepLenetH8)->Unit(benchmark::kMicrosecond);

/** Strategy-sweep path: the four named strategies on one Evaluator. */
void
BM_StrategyBatchAlexNetReference(benchmark::State &state)
{
    const dnn::Network alexnet = dnn::modelByName("AlexNet");
    const sim::Evaluator ev(alexnet, sim::SimConfig{});
    const std::vector<core::Strategy> strategies = {
        core::Strategy::kDataParallel, core::Strategy::kModelParallel,
        core::Strategy::kOneWeirdTrick, core::Strategy::kHypar};

    for (auto _ : state) {
        double checksum = 0.0;
        for (const auto s : strategies)
            checksum += ev.evaluate(s).stepSeconds;
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_StrategyBatchAlexNetReference)
    ->Unit(benchmark::kMicrosecond);

void
BM_StrategyBatchAlexNet(benchmark::State &state)
{
    const dnn::Network alexnet = dnn::modelByName("AlexNet");
    const sim::Evaluator ev(alexnet, sim::SimConfig{});
    const std::vector<core::Strategy> strategies = {
        core::Strategy::kDataParallel, core::Strategy::kModelParallel,
        core::Strategy::kOneWeirdTrick, core::Strategy::kHypar};

    for (auto _ : state) {
        const auto metrics = ev.evaluateBatch(strategies);
        double checksum = 0.0;
        for (const auto &m : metrics)
            checksum += m.stepSeconds;
        benchmark::DoNotOptimize(checksum);
    }
}
BENCHMARK(BM_StrategyBatchAlexNet)->Unit(benchmark::kMicrosecond);

} // namespace
