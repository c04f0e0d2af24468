/**
 * @file
 * Differential test of the simulator's closed-form step schedule
 * against the queue-driven reference (tests/support/queue_reference.hh),
 * which resolves the same task list event by event through a
 * discrete-event queue — the paper's "event-driven simulation"
 * (Section 6.1).
 *
 * Every zoo chain x htree/torus/mesh x overlapGradComm on/off, with
 * recordTrace on, for a HyPar plan and a random plan: simulate() and
 * simulateSteadyState(plan, s) for s in {1, 2, 5} must equal the
 * reference exactly — EXPECT_EQ on every StepMetrics field and on
 * every trace entry's start, end and label.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "sim/evaluator.hh"
#include "sim/training_sim.hh"
#include "support/queue_reference.hh"

using namespace hypar;
using core::HierarchicalPlan;
using core::Parallelism;
using sim::StepMetrics;
using sim::TopologyKind;
using sim::TraceEntry;

namespace {

constexpr std::size_t kLevels = 4;

/** Uniformly random hierarchical plan for `layers` x `levels`. */
HierarchicalPlan
randomPlan(std::size_t layers, std::size_t levels, std::mt19937 &rng)
{
    std::bernoulli_distribution coin(0.5);
    HierarchicalPlan plan;
    plan.levels.assign(levels,
                       core::LevelPlan(layers, Parallelism::kData));
    for (auto &level : plan.levels)
        for (auto &p : level)
            if (coin(rng))
                p = Parallelism::kModel;
    return plan;
}

/** Exact equality of every StepMetrics field and every trace entry. */
void
expectMatchesOracle(const StepMetrics &got,
                    const std::vector<TraceEntry> &got_trace,
                    const tests::QueueRun &want, const std::string &ctx)
{
    const StepMetrics &w = want.metrics;
    EXPECT_EQ(got.stepSeconds, w.stepSeconds) << ctx;
    EXPECT_EQ(got.computeBusySeconds, w.computeBusySeconds) << ctx;
    EXPECT_EQ(got.networkBusySeconds, w.networkBusySeconds) << ctx;
    EXPECT_EQ(got.commBytes, w.commBytes) << ctx;
    EXPECT_EQ(got.phases.forward, w.phases.forward) << ctx;
    EXPECT_EQ(got.phases.backward, w.phases.backward) << ctx;
    EXPECT_EQ(got.phases.gradient, w.phases.gradient) << ctx;
    EXPECT_EQ(got.energy.computeJ, w.energy.computeJ) << ctx;
    EXPECT_EQ(got.energy.sramJ, w.energy.sramJ) << ctx;
    EXPECT_EQ(got.energy.dramJ, w.energy.dramJ) << ctx;
    EXPECT_EQ(got.energy.commJ, w.energy.commJ) << ctx;
    EXPECT_TRUE(got == w) << ctx;

    ASSERT_EQ(got_trace.size(), want.trace.size()) << ctx;
    for (std::size_t i = 0; i < got_trace.size(); ++i) {
        EXPECT_EQ(got_trace[i].start, want.trace[i].start)
            << ctx << " task " << i;
        EXPECT_EQ(got_trace[i].end, want.trace[i].end)
            << ctx << " task " << i;
        EXPECT_EQ(got_trace[i].label, want.trace[i].label)
            << ctx << " task " << i;
    }
}

} // namespace

TEST(QueueOracle, ZooChainsAcrossTopologiesAndOverlap)
{
    std::mt19937 rng(20190216);
    const std::pair<TopologyKind, const char *> kinds[] = {
        {TopologyKind::kHTree, "htree"},
        {TopologyKind::kTorus, "torus"},
        {TopologyKind::kMesh, "mesh"},
    };
    for (const dnn::Network &net : dnn::allModels()) {
        const core::CommModel model(net, core::CommConfig{});
        const HierarchicalPlan plans[] = {
            core::makeHyparPlan(model, kLevels),
            randomPlan(net.size(), kLevels, rng),
        };
        for (const auto &[kind, kind_name] : kinds) {
            const auto topo =
                sim::makeTopology(kind, kLevels, noc::TopologyConfig{});
            for (const bool overlap : {false, true}) {
                sim::SimOptions opts;
                opts.overlapGradComm = overlap;
                opts.recordTrace = true;
                const sim::TrainingSimulator simulator(
                    model, arch::AcceleratorConfig{}, arch::EnergyModel{},
                    *topo, opts);
                for (std::size_t p = 0; p < std::size(plans); ++p) {
                    const std::string ctx =
                        net.name() + " " + kind_name + " overlap " +
                        std::to_string(overlap) + " plan " +
                        std::to_string(p);

                    const tests::QueueRun ref =
                        tests::queueSimulate(simulator, plans[p]);
                    const StepMetrics got = simulator.simulate(plans[p]);
                    expectMatchesOracle(got, simulator.lastTrace(), ref,
                                        ctx + " simulate");

                    for (const std::size_t steps : {1u, 2u, 5u}) {
                        const tests::QueueRun ref_s = tests::queueSimulate(
                            simulator, plans[p], steps);
                        const StepMetrics got_s =
                            simulator.simulateSteadyState(plans[p], steps);
                        expectMatchesOracle(
                            got_s, simulator.lastTrace(), ref_s,
                            ctx + " steps " + std::to_string(steps));
                    }
                }
            }
        }
    }
}

// The oracle is not vacuous: with overlap on, a data-parallel step has
// async reductions on the network, and the steady-state cadence the
// queue resolves is strictly shorter than one isolated step.
TEST(QueueOracle, OverlapMakesTheSteadyStateShorter)
{
    const dnn::Network net = dnn::makeVggA();
    const core::CommModel model(net, core::CommConfig{});
    const auto topo = sim::makeTopology(TopologyKind::kHTree, kLevels,
                                        noc::TopologyConfig{});
    sim::SimOptions opts;
    opts.overlapGradComm = true;
    const sim::TrainingSimulator simulator(
        model, arch::AcceleratorConfig{}, arch::EnergyModel{}, *topo,
        opts);
    const auto plan = core::makeDataParallelPlan(net, kLevels);

    const tests::QueueRun one = tests::queueSimulate(simulator, plan);
    const tests::QueueRun steady =
        tests::queueSimulate(simulator, plan, 5);
    EXPECT_LT(steady.metrics.stepSeconds, one.metrics.stepSeconds);
    EXPECT_EQ(steady.trace.size(), 5 * one.trace.size());
}
