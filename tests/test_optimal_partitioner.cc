/**
 * @file
 * Tests for the exact joint partitioner: global optimality (equals
 * exhaustive search on tiny instances), dominance over the greedy
 * Algorithm 2, and cost-accounting consistency with CommModel.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/brute_force.hh"
#include "core/comm_model.hh"
#include "core/hierarchical_partitioner.hh"
#include "core/optimal_partitioner.hh"
#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "util/logging.hh"

#include "support/sparse_oracle.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::HierarchicalPartitioner;
using core::OptimalPartitioner;

TEST(OptimalPartitioner, MatchesExhaustiveSearchOnTinyNets)
{
    const std::vector<dnn::Network> nets = {
        dnn::NetworkBuilder("t1", {128, 1, 1})
            .fc("a", 512)
            .fc("b", 64)
            .build(),
        dnn::NetworkBuilder("t2", {20, 12, 12})
            .conv("a", 50, 5)
            .fc("b", 10)
            .build(),
    };
    for (const auto &net : nets) {
        CommConfig cfg;
        cfg.batch = 32;
        CommModel model(net, cfg);
        for (std::size_t levels : {1u, 2u, 3u}) {
            const auto brute =
                core::bruteForceHierarchical(model, levels);
            for (auto engine :
                 {core::SearchEngine::kAuto, core::SearchEngine::kDense,
                  core::SearchEngine::kAStar}) {
                core::SearchOptions opts;
                opts.engine = engine;
                const auto exact =
                    OptimalPartitioner(model).partition(levels, opts);
                EXPECT_DOUBLE_EQ(exact.commBytes, brute.commBytes)
                    << net.name() << " H=" << levels << " engine="
                    << static_cast<int>(engine);
            }
        }
    }
}

TEST(OptimalPartitioner, WideEnginesBitIdenticalToDenseAtTheOldCeiling)
{
    // A* and the sparse test oracle must both reproduce the dense DP
    // bit for bit at the old H = 10 ceiling — the oracle has to earn
    // its place as the reference above it.
    dnn::NetworkBuilder b("deep8", {256, 1, 1});
    for (int l = 0; l < 8; ++l)
        b.fc("fc" + std::to_string(l), l % 2 ? 512 : 128);
    const dnn::Network net = b.build();
    CommModel model(net, CommConfig{});
    OptimalPartitioner opt(model);

    const auto dense = opt.partition(10);

    const auto oracle = tests::sparseOracle(model, 10);
    EXPECT_EQ(oracle.commBytes, dense.commBytes);
    EXPECT_EQ(oracle.plan, dense.plan);

    core::SearchOptions astar;
    astar.engine = core::SearchEngine::kAStar;
    const auto as = opt.partition(10, astar);
    EXPECT_EQ(as.commBytes, dense.commBytes);
    EXPECT_EQ(as.plan, dense.plan);
    EXPECT_TRUE(as.stats.certifiedExact);
    // The suffix bound must actually prune: every node is either
    // expanded or pruned, and a healthy bound kills most of them.
    EXPECT_EQ(as.stats.expanded + as.stats.pruned,
              std::uint64_t{1 << 10} * model.numLayers());
    EXPECT_GT(as.stats.pruned, 0u);
    EXPECT_LT(as.transitionsEvaluated, dense.transitionsEvaluated);
}

TEST(OptimalPartitioner, WideEnginesStayExactPastTheOldCeiling)
{
    // H = 12 exceeds the dense ceiling. kAuto (the A* engine there)
    // must reproduce the sparse oracle bit for bit, with fewer
    // relaxations than exhaustion's 4^12 per transition.
    dnn::NetworkBuilder b("deep8", {256, 1, 1});
    for (int l = 0; l < 8; ++l)
        b.fc("fc" + std::to_string(l), l % 2 ? 512 : 128);
    const dnn::Network net = b.build();
    CommModel model(net, CommConfig{});
    OptimalPartitioner opt(model);

    const auto exact = tests::sparseOracle(model, 12);

    const auto pruned = opt.partition(12); // kAuto -> A*
    EXPECT_EQ(pruned.commBytes, exact.commBytes);
    EXPECT_EQ(pruned.plan, exact.plan);
    EXPECT_TRUE(pruned.stats.certifiedExact);
    const std::uint64_t exhaustive =
        (std::uint64_t{1} << 24) * (model.numLayers() - 1);
    EXPECT_LT(pruned.transitionsEvaluated, exhaustive);
}

TEST(OptimalPartitioner, CostEqualsPlanReplay)
{
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto exact = OptimalPartitioner(model).partition(4);
        EXPECT_NEAR(exact.commBytes, model.planBytes(exact.plan),
                    1e-6 * std::max(1.0, exact.commBytes))
            << net.name();
    }
}

TEST(OptimalPartitioner, NeverWorseThanGreedyAlgorithm2)
{
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        for (std::size_t levels : {1u, 2u, 4u, 6u}) {
            const auto exact =
                OptimalPartitioner(model).partition(levels);
            const auto greedy =
                HierarchicalPartitioner(model).partition(levels);
            EXPECT_LE(exact.commBytes,
                      greedy.commBytes * (1 + 1e-12))
                << net.name() << " H=" << levels;
        }
    }
}

TEST(OptimalPartitioner, GreedyGapIsSmallOnTheZoo)
{
    // Empirical claim backing the paper's greedy design: the exact
    // optimum buys at most a few percent over Algorithm 2 on real
    // networks.
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto exact = OptimalPartitioner(model).partition(4);
        const auto greedy = HierarchicalPartitioner(model).partition(4);
        EXPECT_GE(exact.commBytes, 0.90 * greedy.commBytes)
            << net.name();
    }
}

TEST(OptimalPartitioner, SingleLevelEqualsAlgorithm1)
{
    // With one level there is nothing to be greedy about: both
    // partitioners solve the same chain problem exactly.
    for (const auto &net : dnn::allModels()) {
        CommModel model(net, CommConfig{});
        const auto exact = OptimalPartitioner(model).partition(1);
        const auto greedy = HierarchicalPartitioner(model).partition(1);
        EXPECT_DOUBLE_EQ(exact.commBytes, greedy.commBytes)
            << net.name();
    }
}

TEST(OptimalPartitioner, ZeroLevels)
{
    dnn::Network net = dnn::makeLenetC();
    CommModel model(net, CommConfig{});
    const auto result = OptimalPartitioner(model).partition(0);
    EXPECT_DOUBLE_EQ(result.commBytes, 0.0);
    EXPECT_EQ(result.plan.numLevels(), 0u);
}

TEST(OptimalPartitioner, IntraCostMatchesManualExpansion)
{
    // fc 70->100, B=32: level vector "dp then mp" (bit0=0, bit1=1).
    dnn::Network net = dnn::NetworkBuilder("fc", {70, 1, 1})
                           .fc("fc", 100)
                           .build();
    CommConfig cfg;
    cfg.batch = 32;
    CommModel model(net, cfg);
    OptimalPartitioner opt(model);

    // Level 0 dp: 2*70*100*4 = 56000. Level 1 mp beneath one dp:
    // batch halved -> 2*16*100*4 = 12800, weighted by 2 pairs.
    EXPECT_DOUBLE_EQ(opt.intraCost(0, 0b10, 2),
                     56000.0 + 2.0 * 12800.0);
    // All-dp over 2 levels: gradients unscaled at both levels.
    EXPECT_DOUBLE_EQ(opt.intraCost(0, 0b00, 2), 56000.0 * 3.0);
}

TEST(OptimalPartitioner, SearchStatsAreDeterministicAndConsistent)
{
    const dnn::Network net = dnn::makeAlexNet();
    CommModel model(net, CommConfig{});
    OptimalPartitioner opt(model);
    const std::size_t levels = 6;
    const std::uint64_t states = 1u << levels;
    const std::uint64_t nodes = states * net.size();

    core::SearchOptions o;
    o.engine = core::SearchEngine::kDense;
    const auto dense = opt.partition(levels, o);
    EXPECT_TRUE(dense.stats.certifiedExact);
    EXPECT_EQ(dense.stats.expanded, nodes);
    EXPECT_EQ(dense.stats.pruned, 0u);
    EXPECT_EQ(dense.stats.widthUsed, states);

    o.engine = core::SearchEngine::kAStar;
    const auto astar = opt.partition(levels, o);
    EXPECT_TRUE(astar.stats.certifiedExact);
    EXPECT_EQ(astar.stats.expanded + astar.stats.pruned, nodes);
    EXPECT_GE(astar.stats.widthUsed, 1u);
    EXPECT_LE(astar.stats.widthUsed, states);
    // Stats are deterministic: a second identical search agrees.
    const auto again = opt.partition(levels, o);
    EXPECT_EQ(again.stats.expanded, astar.stats.expanded);
    EXPECT_EQ(again.stats.pruned, astar.stats.pruned);
    EXPECT_EQ(again.stats.widthUsed, astar.stats.widthUsed);
    EXPECT_EQ(again.transitionsEvaluated, astar.transitionsEvaluated);

    // The greedy Algorithm 2 carries no certificate.
    const auto greedy = HierarchicalPartitioner(model).partition(levels);
    EXPECT_FALSE(greedy.stats.certifiedExact);
}

TEST(OptimalPartitioner, ShallowSearchesCountEveryTransition)
{
    // Below H = 3 both engines run the naive reference DP, which
    // evaluates every one of the 4^H (L-1) transitions: VGG-A has
    // L = 11, so H = 1/2 evaluate 40/160. The count feeds the
    // `search` object of plan responses and cache entries.
    const dnn::Network net = dnn::makeVggA();
    const CommModel model(net, CommConfig{});
    const OptimalPartitioner opt(model);
    for (const auto engine :
         {core::SearchEngine::kAuto, core::SearchEngine::kDense,
          core::SearchEngine::kAStar}) {
        core::SearchOptions o;
        o.engine = engine;
        EXPECT_EQ(opt.partition(1, o).transitionsEvaluated, 40u)
            << static_cast<int>(engine);
        EXPECT_EQ(opt.partition(2, o).transitionsEvaluated, 160u)
            << static_cast<int>(engine);
    }
    EXPECT_EQ(opt.partitionReference(3).transitionsEvaluated,
              opt.partition(3).transitionsEvaluated);
}

TEST(OptimalPartitioner, AStarSearchStatsArePinnedPastTheDenseCeiling)
{
    // The pristine default config's A* results at H = 12..14, pinned bit
    // for bit: commBytes, transitions, expanded/pruned and width all
    // feed the `search` object of plan responses and cache entries.
    // The stats move with the suffix bound, the intra table and the
    // incumbent pass, so a drift in any of them fails here even when
    // the plan still holds.
    struct Pin
    {
        const char *model;
        std::size_t levels;
        std::size_t batch;
        std::uint64_t commBits;
        std::uint64_t transitions;
        std::uint64_t expanded;
        std::uint64_t pruned;
        std::size_t width;
    };
    const Pin pins[] = {
        {"AlexNet", 12, 256, 0x4220e24dfe000000u, 799750, 4621, 28147,
         1507},
        {"AlexNet", 13, 4096, 0x424688235f800000u, 1679924, 5532, 60004,
         1716},
        {"VGG-E", 12, 4096, 0x425e93bb12800000u, 847484, 2261, 75563,
         896},
        {"VGG-E", 13, 256, 0x424f899c85000000u, 5451072, 21244, 134404,
         3718},
        // The widest frontier pinned: 6006 live states per layer feed
        // the scan's once-per-chunk transition counts.
        {"VGG-E", 14, 256, 0x4256b6d642800000u, 22134799, 41073, 270223,
         6006},
        // The width-8 incumbent bound is looser here than a width-64
        // one (which expanded 3562 and pruned 18966), so this row pins
        // a search whose bound is not already tight.
        {"VGG-A", 11, 37, 0x4218a6f477000000u, 503707, 3794, 18734,
         1254},
    };
    for (const Pin &pin : pins) {
        const dnn::Network net = dnn::modelByName(pin.model);
        CommConfig cfg;
        cfg.batch = pin.batch;
        const CommModel model(net, cfg);
        const auto res = OptimalPartitioner(model).partition(pin.levels);
        const std::string where = std::string(pin.model) + " H=" +
                                  std::to_string(pin.levels) + " B=" +
                                  std::to_string(pin.batch);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.commBytes),
                  pin.commBits)
            << where;
        EXPECT_EQ(res.transitionsEvaluated, pin.transitions) << where;
        EXPECT_EQ(res.stats.expanded, pin.expanded) << where;
        EXPECT_EQ(res.stats.pruned, pin.pruned) << where;
        EXPECT_EQ(res.stats.widthUsed, pin.width) << where;
        EXPECT_TRUE(res.stats.certifiedExact) << where;
    }
}

TEST(OptimalPartitioner, RejectsAbsurdDepth)
{
    dnn::Network net = dnn::makeLenetC();
    CommModel model(net, CommConfig{});
    const OptimalPartitioner opt(model);

    // H = 11 used to be fatal; kAuto now routes it to the A* engine.
    EXPECT_NO_THROW((void)opt.partition(11));

    // The dense engine (and its reference) keep the 4^H ceiling...
    core::SearchOptions dense;
    dense.engine = core::SearchEngine::kDense;
    try {
        (void)opt.partition(11, dense);
        ADD_FAILURE() << "dense H = 11 did not throw";
    } catch (const util::FatalError &e) {
        // The message names the library engines that do reach H = 11.
        EXPECT_NE(std::string(e.what()).find(
                      "use SearchEngine::kAStar or kAuto"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW((void)opt.partitionReference(11), util::FatalError);

    // ...and A* (kAuto's wide engine) stops at H = 16.
    EXPECT_THROW((void)opt.partition(17), util::FatalError);
    core::SearchOptions astar;
    astar.engine = core::SearchEngine::kAStar;
    EXPECT_THROW((void)opt.partition(17, astar), util::FatalError);
}
