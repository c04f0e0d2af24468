/**
 * @file
 * Randomized equivalence tests for the table-driven search engines: the
 * optimized DP (OptimalPartitioner::partition), the table-driven
 * Algorithm 1 (PairwisePartitioner::partition), the Gray-code
 * enumerator (bruteForcePairwise) and the incremental sweep scorer
 * (sweepLevelBytes) must return *bit-identical* costs and plans to the
 * naive seed implementations, which are kept as *_reference oracles.
 *
 * "Bit-identical" is EXPECT_EQ on doubles — no ULP tolerance. The
 * optimized paths are constructed to replay the oracles' exact
 * floating-point operation order, and these tests enforce that across
 * 100+ random networks, histories, batch sizes, word widths, exchange
 * factors and scaling modes.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/optimal_partitioner.hh"
#include "core/pairwise_partitioner.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"

#include "support/sparse_oracle.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::History;
using core::LevelPlan;
using core::Parallelism;

namespace {

/** Random conv/fc chain with 2..10 weighted layers. */
dnn::Network
randomNetwork(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> convs(0, 2);
    std::uniform_int_distribution<int> fcs(2, 8);
    std::uniform_int_distribution<std::size_t> channels(1, 64);
    std::uniform_int_distribution<std::size_t> widths(1, 512);

    const int num_convs = convs(rng);
    dnn::NetworkBuilder b("rand",
                          num_convs > 0
                              ? dnn::SampleShape{3, 16, 16}
                              : dnn::SampleShape{widths(rng), 1, 1});
    for (int c = 0; c < num_convs; ++c)
        b.conv("conv" + std::to_string(c), channels(rng), 3);
    const int num_fcs = fcs(rng);
    for (int f = 0; f < num_fcs; ++f)
        b.fc("fc" + std::to_string(f), widths(rng));
    return b.build();
}

CommConfig
randomConfig(std::mt19937 &rng)
{
    std::uniform_int_distribution<std::size_t> batch(1, 512);
    std::uniform_int_distribution<int> word(0, 2);
    std::bernoulli_distribution coin(0.5);

    CommConfig cfg;
    cfg.batch = batch(rng);
    cfg.wordBytes = std::array<double, 3>{1.0, 2.0, 4.0}[word(rng)];
    cfg.exchangeFactor = coin(rng) ? 2.0 : 1.0;
    cfg.scaling = coin(rng) ? CommConfig::Scaling::kPartitioned
                            : CommConfig::Scaling::kNone;
    return cfg;
}

History
randomHistory(std::size_t layers, std::mt19937 &rng)
{
    std::uniform_int_distribution<int> depth(0, 4);
    std::bernoulli_distribution coin(0.5);
    History hist(layers);
    const int d = depth(rng);
    for (int i = 0; i < d; ++i) {
        LevelPlan plan(layers, Parallelism::kData);
        for (auto &p : plan)
            if (coin(rng))
                p = Parallelism::kModel;
        hist.push(plan);
    }
    return hist;
}

} // namespace

TEST(EquivalenceRandom, CommModelTablesMatchReferenceFormulas)
{
    std::mt19937 rng(101);
    for (int trial = 0; trial < 100; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const History hist = randomHistory(net.size(), rng);

        core::PairTables tables;
        model.fillPairTables(hist, tables);

        for (std::size_t l = 0; l < net.size(); ++l) {
            for (auto p : {Parallelism::kData, Parallelism::kModel}) {
                const double cached = model.intraBytes(l, p, hist);
                EXPECT_EQ(cached,
                          model.intraBytesReference(l, p, hist))
                    << "trial " << trial << " layer " << l;
                EXPECT_EQ(cached,
                          tables.intra[2 * l + static_cast<int>(p)]);
            }
            if (l + 1 == net.size())
                continue;
            for (auto prev : {Parallelism::kData, Parallelism::kModel}) {
                for (auto cur :
                     {Parallelism::kData, Parallelism::kModel}) {
                    const double cached =
                        model.interBytes(l, prev, cur, hist);
                    EXPECT_EQ(cached, model.interBytesReference(
                                          l, prev, cur, hist))
                        << "trial " << trial << " layer " << l;
                    EXPECT_EQ(cached,
                              tables.inter[4 * l +
                                           2 * static_cast<int>(prev) +
                                           static_cast<int>(cur)]);
                    // Count-based API agrees exactly too.
                    EXPECT_EQ(cached,
                              model.interBytesAt(l, prev, cur,
                                                 hist.dpCount(l),
                                                 hist.dpCount(l + 1)));
                }
            }
        }
    }
}

TEST(EquivalenceRandom, PairwisePartitionerMatchesReference)
{
    std::mt19937 rng(202);
    for (int trial = 0; trial < 150; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const History hist = randomHistory(net.size(), rng);

        const core::PairwisePartitioner partitioner(model);
        const auto fast = partitioner.partition(hist);
        const auto ref = partitioner.partitionReference(hist);
        EXPECT_EQ(fast.commBytes, ref.commBytes) << "trial " << trial;
        EXPECT_EQ(fast.plan, ref.plan) << "trial " << trial;
    }
}

TEST(EquivalenceRandom, GrayCodeEnumeratorMatchesReference)
{
    std::mt19937 rng(303);
    for (int trial = 0; trial < 120; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const History hist = randomHistory(net.size(), rng);

        const auto fast = core::bruteForcePairwise(model, hist);
        const auto ref = core::bruteForcePairwiseReference(model, hist);
        EXPECT_EQ(fast.commBytes, ref.commBytes) << "trial " << trial;
        EXPECT_EQ(fast.plan, ref.plan) << "trial " << trial;

        // The enumerated optimum is also what Algorithm 1 finds.
        const auto dp = core::PairwisePartitioner(model).partition(hist);
        EXPECT_EQ(fast.commBytes, dp.commBytes) << "trial " << trial;
        EXPECT_EQ(fast.plan, dp.plan) << "trial " << trial;
    }
}

TEST(EquivalenceRandom, OptimalPartitionerMatchesReference)
{
    std::mt19937 rng(404);
    std::uniform_int_distribution<std::size_t> levels(1, 4);
    for (int trial = 0; trial < 100; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = levels(rng);
        const auto fast = partitioner.partition(h);
        const auto ref = partitioner.partitionReference(h);
        EXPECT_EQ(fast.commBytes, ref.commBytes)
            << "trial " << trial << " H=" << h;
        EXPECT_EQ(fast.plan, ref.plan) << "trial " << trial << " H=" << h;
    }
}

TEST(EquivalenceRandom, AStarAndSparseOracleMatchDenseDp)
{
    // The A* engine prunes against its admissible suffix bound and the
    // sparse test oracle with a monotone floating-point lower bound;
    // both must reproduce the dense DP bit for bit across random
    // networks, depths up to the old ceiling, and model configs. This
    // is also what qualifies the oracle as A*'s reference past H = 10.
    std::mt19937 rng(606);
    std::uniform_int_distribution<std::size_t> levels(3, 8);
    for (int trial = 0; trial < 60; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = levels(rng);
        const auto dense = partitioner.partition(h);

        const auto sp = tests::sparseOracle(model, h);
        EXPECT_EQ(sp.commBytes, dense.commBytes)
            << "trial " << trial << " H=" << h;
        EXPECT_EQ(sp.plan, dense.plan) << "trial " << trial << " H=" << h;

        core::SearchOptions astar;
        astar.engine = core::SearchEngine::kAStar;
        const auto as = partitioner.partition(h, astar);
        EXPECT_EQ(as.commBytes, dense.commBytes)
            << "trial " << trial << " H=" << h;
        EXPECT_EQ(as.plan, dense.plan) << "trial " << trial << " H=" << h;
        EXPECT_TRUE(as.stats.certifiedExact)
            << "trial " << trial << " H=" << h;
    }
}

TEST(EquivalenceRandom, AStarMatchesSparsePastTheDenseCeiling)
{
    // Above H = 10 the dense oracle is gone; the sparse test oracle
    // (exact by dominance pruning alone) stands in. A* must agree bit
    // for bit at depths the dense DP cannot reach, across random
    // networks and model configs.
    std::mt19937 rng(909);
    std::uniform_int_distribution<std::size_t> levels(11, 13);
    for (int trial = 0; trial < 6; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = levels(rng);
        const auto sp = tests::sparseOracle(model, h);

        core::SearchOptions astar;
        astar.engine = core::SearchEngine::kAStar;
        const auto as = partitioner.partition(h, astar);
        EXPECT_EQ(as.commBytes, sp.commBytes)
            << "trial " << trial << " L=" << net.size() << " H=" << h;
        EXPECT_EQ(as.plan, sp.plan)
            << "trial " << trial << " L=" << net.size() << " H=" << h;
        EXPECT_TRUE(as.stats.certifiedExact);
    }

    // One zoo instance at H = 14.
    const dnn::Network net = dnn::makeLenetC();
    const CommModel model(net, CommConfig{});
    const core::OptimalPartitioner partitioner(model);
    const auto sp = tests::sparseOracle(model, 14);
    core::SearchOptions astar;
    astar.engine = core::SearchEngine::kAStar;
    const auto as = partitioner.partition(14, astar);
    EXPECT_EQ(as.commBytes, sp.commBytes);
    EXPECT_EQ(as.plan, sp.plan);
}

TEST(EquivalenceRandom, GrayCodeHierarchicalMatchesReference)
{
    // The joint Gray-code enumerator must reproduce the naive (2^L)^H
    // recursion bit for bit: same total bytes, same plan on ties.
    std::mt19937 rng(707);
    std::uniform_int_distribution<std::size_t> levels(1, 3);
    for (int trial = 0; trial < 60; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));

        std::size_t h = levels(rng);
        while (h > 1 && net.size() * h > 16)
            --h; // keep the naive oracle's rescan affordable
        if (net.size() * h > 16)
            continue;

        const auto fast = core::bruteForceHierarchical(model, h);
        const auto ref = core::bruteForceHierarchicalReference(model, h);
        EXPECT_EQ(fast.commBytes, ref.commBytes)
            << "trial " << trial << " L=" << net.size() << " H=" << h;
        EXPECT_EQ(fast.plan, ref.plan)
            << "trial " << trial << " L=" << net.size() << " H=" << h;
    }
}

TEST(EquivalenceRandom, JointDpMatchesGrayCodeHierarchicalOracle)
{
    // The widened oracle at work: every engine of the joint DP agrees
    // with exhaustive enumeration at H = 2-3 on networks big enough to
    // exercise real pruning (the old naive recursion choked above
    // L*H = 24; the Gray-code tape reaches these sizes in well under a
    // second).
    std::mt19937 rng(808);
    for (int trial = 0; trial < 25; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        const CommModel model(net, randomConfig(rng));
        const core::OptimalPartitioner partitioner(model);

        const std::size_t h = net.size() <= 8 ? 3 : 2;
        if (net.size() * h > 26)
            continue;
        const auto brute = core::bruteForceHierarchical(model, h);

        for (auto engine :
             {core::SearchEngine::kDense, core::SearchEngine::kAStar}) {
            core::SearchOptions opts;
            opts.engine = engine;
            const auto exact = partitioner.partition(h, opts);
            EXPECT_DOUBLE_EQ(exact.commBytes, brute.commBytes)
                << "trial " << trial << " L=" << net.size() << " H=" << h
                << " engine=" << static_cast<int>(engine);
        }
    }
}

TEST(EquivalenceRandom, SweepLevelBytesMatchesPlanBytes)
{
    std::mt19937 rng(505);
    std::uniform_int_distribution<std::size_t> levels(1, 4);
    std::bernoulli_distribution coin(0.5);
    for (int trial = 0; trial < 100; ++trial) {
        const dnn::Network net = randomNetwork(rng);
        if (net.size() > 10)
            continue; // keep the 2^L naive rescan cheap
        const CommModel model(net, randomConfig(rng));

        const std::size_t num_levels = levels(rng);
        core::HierarchicalPlan base;
        base.levels.assign(num_levels,
                           LevelPlan(net.size(), Parallelism::kData));
        for (auto &level : base.levels)
            for (auto &p : level)
                if (coin(rng))
                    p = Parallelism::kModel;
        const std::size_t swept =
            std::uniform_int_distribution<std::size_t>(
                0, num_levels - 1)(rng);

        // Naive oracle: substitute each mask and fully rescore.
        std::vector<double> expected(std::size_t{1} << net.size());
        core::sweepLevelMasks(
            base, swept,
            [&](std::uint64_t mask, const core::HierarchicalPlan &plan) {
                expected[mask] = model.planBytes(plan);
            });

        std::size_t visited = 0;
        core::sweepLevelBytes(
            model, base, swept,
            [&](std::uint64_t mask, double bytes) {
                EXPECT_EQ(bytes, expected[mask])
                    << "trial " << trial << " mask " << mask;
                ++visited;
            });
        EXPECT_EQ(visited, expected.size()) << "trial " << trial;
    }
}
