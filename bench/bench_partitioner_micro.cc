/**
 * @file
 * google-benchmark micro-benchmarks of the partition search itself,
 * validating the paper's practicality claim: "the time complexity for
 * the partition search in HyPar is linear" (Section 4). BM_Pairwise
 * reports O(N) complexity over synthetic networks of 8..4096 weighted
 * layers; BM_Hierarchical shows the O(H*L) scaling of Algorithm 2; the
 * brute-force baseline shows the O(2^N) wall the paper avoids.
 *
 * Every optimized engine is benchmarked next to its *_Reference
 * counterpart — the pre-optimization implementation kept in-tree as a
 * test oracle — so one binary quotes the before/after speedups. Run
 * the `bench_partitioner_json` CMake target (or pass
 * --benchmark_format=json) to get machine-readable numbers, and
 * tools/bench_report.py to summarize the reference-vs-optimized pairs.
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"
#include "core/pairwise_partitioner.hh"
#include "core/simd_kernels.hh"
#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"

using namespace hypar;

namespace {

/** Deep synthetic fc chain with alternating widths. */
dnn::Network
deepNet(std::size_t layers)
{
    dnn::NetworkBuilder b("deep", {256, 1, 1});
    for (std::size_t l = 0; l < layers; ++l)
        b.fc("fc" + std::to_string(l), l % 2 ? 512 : 128);
    return b.build();
}

/** Algorithm 2 driven by the reference (pre-optimization) Algorithm 1:
 *  the before-side of the full-search benches. */
double
referenceHierarchicalSearch(const core::CommModel &model,
                            std::size_t levels)
{
    core::PairwisePartitioner pairwise(model);
    core::History hist(model.numLayers());
    double total = 0.0;
    double pairs = 1.0;
    for (std::size_t h = 0; h < levels; ++h) {
        const auto result = pairwise.partitionReference(hist);
        total += pairs * result.commBytes;
        hist.push(result.plan);
        pairs *= 2.0;
    }
    return total;
}

void
BM_PairwisePartition(benchmark::State &state)
{
    const auto layers = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(layers);
    core::CommModel model(net, core::CommConfig{});
    core::PairwisePartitioner partitioner(model);
    core::History hist(net.size());
    for (auto _ : state) {
        auto result = partitioner.partition(hist);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_PairwisePartitionReference(benchmark::State &state)
{
    const auto layers = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(layers);
    core::CommModel model(net, core::CommConfig{});
    core::PairwisePartitioner partitioner(model);
    core::History hist(net.size());
    for (auto _ : state) {
        auto result = partitioner.partitionReference(hist);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_HierarchicalPartition(benchmark::State &state)
{
    const auto levels = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(64);
    core::CommModel model(net, core::CommConfig{});
    core::HierarchicalPartitioner partitioner(model);
    for (auto _ : state) {
        auto result = partitioner.partition(levels);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_BruteForcePairwise(benchmark::State &state)
{
    const auto layers = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(layers);
    core::CommModel model(net, core::CommConfig{});
    core::History hist(net.size());
    for (auto _ : state) {
        auto result = core::bruteForcePairwise(model, hist);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_BruteForcePairwiseReference(benchmark::State &state)
{
    const auto layers = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(layers);
    core::CommModel model(net, core::CommConfig{});
    core::History hist(net.size());
    for (auto _ : state) {
        auto result = core::bruteForcePairwiseReference(model, hist);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_HyparFullSearchZoo(benchmark::State &state)
{
    // End-to-end Algorithm 2 on the paper's largest network.
    dnn::Network net = dnn::makeVggE();
    core::CommModel model(net, core::CommConfig{});
    core::HierarchicalPartitioner partitioner(model);
    for (auto _ : state) {
        auto result = partitioner.partition(4);
        benchmark::DoNotOptimize(result.commBytes);
    }
}

void
BM_HyparFullSearchZooReference(benchmark::State &state)
{
    dnn::Network net = dnn::makeVggE();
    core::CommModel model(net, core::CommConfig{});
    for (auto _ : state) {
        benchmark::DoNotOptimize(referenceHierarchicalSearch(model, 4));
    }
}

void
BM_OptimalPartition(benchmark::State &state)
{
    const auto levels = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(12);
    core::CommModel model(net, core::CommConfig{});
    core::OptimalPartitioner partitioner(model);
    for (auto _ : state) {
        auto result = partitioner.partition(levels);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_OptimalPartitionReference(benchmark::State &state)
{
    const auto levels = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(12);
    core::CommModel model(net, core::CommConfig{});
    core::OptimalPartitioner partitioner(model);
    for (auto _ : state) {
        auto result = partitioner.partitionReference(levels);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_OptimalPartitionAStar(benchmark::State &state)
{
    // The exact best-first engine under the admissible suffix bound:
    // depths the dense DP cannot touch at all, with bit-identical
    // results to it wherever both run.
    const auto levels = static_cast<std::size_t>(state.range(0));
    dnn::Network net = deepNet(12);
    core::CommModel model(net, core::CommConfig{});
    core::OptimalPartitioner partitioner(model);
    core::SearchOptions opts;
    opts.engine = core::SearchEngine::kAStar;
    for (auto _ : state) {
        auto result = partitioner.partition(levels, opts);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_OptimalPartitionAStarVggE(benchmark::State &state)
{
    // The headline row of the "H = 16 interactive" work: the paper's
    // largest network at the full 2^16-node depth, exact. CI gates
    // this row against tools/bench_baseline.json (check_bench.py), so
    // a regression toward the old ~22 s behavior fails the Release
    // job instead of just dimming the report.
    const auto levels = static_cast<std::size_t>(state.range(0));
    dnn::Network net = dnn::makeVggE();
    core::CommModel model(net, core::CommConfig{});
    core::OptimalPartitioner partitioner(model);
    core::SearchOptions opts;
    opts.engine = core::SearchEngine::kAStar;
    for (auto _ : state) {
        auto result = partitioner.partition(levels, opts);
        benchmark::DoNotOptimize(result.commBytes);
    }
}

void
BM_OptimalPartitionResNetBlock(benchmark::State &state)
{
    // The series-parallel DAG path: a residual block routed through
    // decompose() + the per-component DP instead of the chain DP. The
    // per-level cost tables dominate; the SP solve itself is a handful
    // of S x S table merges.
    const auto levels = static_cast<std::size_t>(state.range(0));
    dnn::Network net = dnn::makeResNetBlock();
    core::CommModel model(net, core::CommConfig{});
    core::OptimalPartitioner partitioner(model);
    for (auto _ : state) {
        auto result = partitioner.partition(levels);
        benchmark::DoNotOptimize(result.commBytes);
    }
    state.SetComplexityN(state.range(0));
}

/** Shared state for the kernel-level SIMD rows: the H-deep factored
 *  expansion cascade plus the dense and beam-pass scan inputs,
 *  filled with deterministic values. */
struct SimdBenchData {
    explicit SimdBenchData(unsigned levels)
        : h(levels), n(std::size_t{1} << levels), trans(n), cost(n),
          best(n), prev(n), pcnt(n), rows0(levels), rows1(levels)
    {
        for (std::size_t i = 0; i < n; ++i) {
            cost[i] = static_cast<double>((i * 37) % 1013) * 0.25;
            best[i] = 1e30;
            pcnt[i] = static_cast<std::uint8_t>(std::popcount(i));
        }
        for (unsigned l = 0; l < h; ++l) {
            rows0[l].resize(l + 1);
            rows1[l].resize(l + 1);
            for (unsigned a = 0; a <= l; ++a) {
                rows0[l][a] = static_cast<double>(l * 7 + a) * 0.125;
                rows1[l][a] = static_cast<double>(l * 11 + a) * 0.0625;
            }
        }
    }

    /** One full expansion: all 2^h transition sums from the factored
     *  rows — exactly the per-(layer, predecessor) work of the dense
     *  engine and of A*'s incumbent beam pass. */
    void expand(const core::simd::Kernels &k)
    {
        trans[0] = 0.0;
        for (unsigned l = 0; l < h; ++l)
            k.expandLevel(trans.data(), std::size_t{1} << l,
                          rows0[l].data(), rows1[l].data(), pcnt.data(),
                          l);
    }

    unsigned h;
    std::size_t n;
    std::vector<double> trans, cost, best;
    std::vector<std::uint32_t> prev;
    std::vector<std::uint8_t> pcnt;
    std::vector<std::vector<double>> rows0, rows1;
};

void
simdExpandLevelRun(benchmark::State &state, const core::simd::Kernels &k)
{
    SimdBenchData d(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        d.expand(k);
        benchmark::DoNotOptimize(d.trans[d.n - 1]);
    }
}

void
simdArgminAddRun(benchmark::State &state, const core::simd::Kernels &k)
{
    SimdBenchData d(static_cast<unsigned>(state.range(0)));
    d.expand(core::simd::scalarKernels());
    for (auto _ : state) {
        double min = 0.0;
        std::uint32_t p =
            k.argminAdd(d.cost.data(), d.trans.data(), d.n, &min);
        benchmark::DoNotOptimize(p);
        benchmark::DoNotOptimize(min);
    }
}

void
simdRelaxRowRun(benchmark::State &state, const core::simd::Kernels &k)
{
    SimdBenchData d(static_cast<unsigned>(state.range(0)));
    d.expand(core::simd::scalarKernels());
    // A beam-pass-shaped workload: 16 predecessors relaxed in
    // ascending order into one (best, prev) row. After the first
    // iteration the row is saturated and the scan is compare-dominated
    // — the steady-state shape of a wide frontier.
    for (auto _ : state) {
        for (std::uint32_t p = 0; p < 16; ++p)
            k.relaxRow(d.best.data(), d.prev.data(), d.trans.data(),
                       d.cost[p], p, d.n);
        benchmark::DoNotOptimize(d.best[d.n - 1]);
    }
}

// The SIMD lever's before/after rows. The optimized side is the AVX2
// set, the *Reference twin the scalar set — both called directly
// because activeKernels() caches its HYPAR_SIMD choice in a static, so
// the two sides cannot be A/B'd through the dispatcher in one process.
// Bit-equivalence of the pair is pinned by test_simd_kernels.

void
BM_SimdExpandLevel(benchmark::State &state)
{
    if (!core::simd::avx2Available()) {
        state.SkipWithError("AVX2 unavailable on this host");
        return;
    }
    simdExpandLevelRun(state, core::simd::avx2Kernels());
}

void
BM_SimdExpandLevelReference(benchmark::State &state)
{
    simdExpandLevelRun(state, core::simd::scalarKernels());
}

void
BM_SimdArgminAdd(benchmark::State &state)
{
    if (!core::simd::avx2Available()) {
        state.SkipWithError("AVX2 unavailable on this host");
        return;
    }
    simdArgminAddRun(state, core::simd::avx2Kernels());
}

void
BM_SimdArgminAddReference(benchmark::State &state)
{
    simdArgminAddRun(state, core::simd::scalarKernels());
}

void
BM_SimdRelaxRow(benchmark::State &state)
{
    if (!core::simd::avx2Available()) {
        state.SkipWithError("AVX2 unavailable on this host");
        return;
    }
    simdRelaxRowRun(state, core::simd::avx2Kernels());
}

void
BM_SimdRelaxRowReference(benchmark::State &state)
{
    simdRelaxRowRun(state, core::simd::scalarKernels());
}

void
BM_BruteForceHierarchical(benchmark::State &state)
{
    // The Gray-code joint enumerator: (2^L)^H plans, one flip apart.
    dnn::Network net = deepNet(6);
    core::CommModel model(net, core::CommConfig{});
    for (auto _ : state) {
        auto result = core::bruteForceHierarchical(model, 3);
        benchmark::DoNotOptimize(result.commBytes);
    }
}

void
BM_BruteForceHierarchicalReference(benchmark::State &state)
{
    dnn::Network net = deepNet(6);
    core::CommModel model(net, core::CommConfig{});
    for (auto _ : state) {
        auto result = core::bruteForceHierarchicalReference(model, 3);
        benchmark::DoNotOptimize(result.commBytes);
    }
}

void
BM_SweepLevelBytes(benchmark::State &state)
{
    // The Fig. 9/10 building block: score all 2^L substitutions of one
    // hierarchy level by total plan communication.
    dnn::Network net = dnn::makeVggA();
    core::CommModel model(net, core::CommConfig{});
    const auto base = core::makeHyparPlan(model, 4);
    for (auto _ : state) {
        double sum = 0.0;
        core::sweepLevelBytes(model, base, 0,
                              [&](std::uint64_t, double bytes) {
                                  sum += bytes;
                              });
        benchmark::DoNotOptimize(sum);
    }
}

void
BM_SweepLevelBytesReference(benchmark::State &state)
{
    dnn::Network net = dnn::makeVggA();
    core::CommModel model(net, core::CommConfig{});
    const auto base = core::makeHyparPlan(model, 4);
    for (auto _ : state) {
        double sum = 0.0;
        core::sweepLevelMasks(
            base, 0,
            [&](std::uint64_t, const core::HierarchicalPlan &plan) {
                sum += model.planBytes(plan);
            });
        benchmark::DoNotOptimize(sum);
    }
}

void
BM_CommModelPlanBytes(benchmark::State &state)
{
    dnn::Network net = dnn::makeVggE();
    core::CommModel model(net, core::CommConfig{});
    const auto plan = core::makeDataParallelPlan(net, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.planBytes(plan));
    }
}

} // namespace

BENCHMARK(BM_PairwisePartition)
    ->RangeMultiplier(4)
    ->Range(8, 4096)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_PairwisePartitionReference)
    ->RangeMultiplier(4)
    ->Range(8, 4096)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_HierarchicalPartition)->DenseRange(1, 6);
BENCHMARK(BM_BruteForcePairwise)
    ->DenseRange(8, 20, 4)
    ->Complexity(benchmark::o1); // reported complexity is meaningless
                                 // here; the point is the 2^N blow-up
                                 // visible in the raw times
BENCHMARK(BM_BruteForcePairwiseReference)
    ->DenseRange(8, 20, 4)
    ->Complexity(benchmark::o1);
BENCHMARK(BM_HyparFullSearchZoo);
BENCHMARK(BM_HyparFullSearchZooReference);
// H starts at 4: below H = 3 partition() delegates to the reference
// path, and timing identical code would pin the report's minimum
// speedup at 1x.
BENCHMARK(BM_OptimalPartition)->DenseRange(4, 6, 2);
BENCHMARK(BM_OptimalPartitionReference)->DenseRange(4, 6, 2);
// The exact engine past the dense ceiling, to the full H = 14 micro
// range.
BENCHMARK(BM_OptimalPartitionAStar)->DenseRange(10, 14, 2);
// The DAG path next to its chain siblings (same H sweep as the dense
// rows).
BENCHMARK(BM_OptimalPartitionResNetBlock)->DenseRange(4, 6, 2);
// The gated headline row: one exact solve per run keeps the JSON
// target's wall clock bounded (a solve is seconds, not micros), and
// the row is a baseline check, not a statistics exercise.
BENCHMARK(BM_OptimalPartitionAStarVggE)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
// The SIMD lever at the headline table width (2^16 doubles).
BENCHMARK(BM_SimdExpandLevel)->Arg(16);
BENCHMARK(BM_SimdExpandLevelReference)->Arg(16);
BENCHMARK(BM_SimdArgminAdd)->Arg(16);
BENCHMARK(BM_SimdArgminAddReference)->Arg(16);
BENCHMARK(BM_SimdRelaxRow)->Arg(16);
BENCHMARK(BM_SimdRelaxRowReference)->Arg(16);
BENCHMARK(BM_BruteForceHierarchical);
BENCHMARK(BM_BruteForceHierarchicalReference);
BENCHMARK(BM_SweepLevelBytes);
BENCHMARK(BM_SweepLevelBytesReference);
BENCHMARK(BM_CommModelPlanBytes);
