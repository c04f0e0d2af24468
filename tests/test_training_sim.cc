/**
 * @file
 * Tests for the training-step simulator: conservation laws (simulated
 * communication equals the analytic model), monotonicity, phase
 * accounting, trace recording and the gradient-overlap option.
 */

#include <gtest/gtest.h>

#include "core/strategies.hh"
#include "dnn/model_zoo.hh"
#include "noc/htree.hh"
#include "sim/training_sim.hh"
#include "util/logging.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::Parallelism;
using sim::SimOptions;
using sim::TrainingSimulator;

namespace {

struct Rig
{
    explicit Rig(const dnn::Network &n, std::size_t levels = 4,
                 SimOptions opts = {})
        : net(n), model(net, CommConfig{}),
          topo(levels, noc::TopologyConfig{}),
          simulator(model, arch::AcceleratorConfig{},
                    arch::EnergyModel{}, topo, opts)
    {}

    dnn::Network net;
    CommModel model;
    noc::HTreeTopology topo;
    TrainingSimulator simulator;
};

} // namespace

TEST(TrainingSim, SimulatedCommEqualsAnalyticModel)
{
    // Conservation: the simulator's communicated bytes must equal
    // CommModel::planBytes for every strategy and network.
    for (const auto &net : dnn::allModels()) {
        Rig rig(net);
        for (auto strategy :
             {core::Strategy::kDataParallel, core::Strategy::kModelParallel,
              core::Strategy::kOneWeirdTrick, core::Strategy::kHypar}) {
            const auto plan = core::makePlan(strategy, rig.model, 4);
            const auto metrics = rig.simulator.simulate(plan);
            EXPECT_NEAR(metrics.commBytes, rig.model.planBytes(plan),
                        1e-6 * std::max(1.0, metrics.commBytes))
                << net.name() << " " << core::toString(strategy);
        }
    }
}

TEST(TrainingSim, StepCoversComputeAndNetwork)
{
    Rig rig(dnn::makeAlexNet());
    const auto plan =
        core::makeDataParallelPlan(rig.net, 4);
    const auto m = rig.simulator.simulate(plan);
    EXPECT_GT(m.stepSeconds, 0.0);
    EXPECT_GT(m.computeBusySeconds, 0.0);
    EXPECT_GT(m.networkBusySeconds, 0.0);
    // Serialized execution: step = compute + network exactly.
    EXPECT_NEAR(m.stepSeconds, m.computeBusySeconds + m.networkBusySeconds,
                1e-9 * m.stepSeconds);
    // Phase times partition the step.
    EXPECT_NEAR(m.phases.total(), m.stepSeconds, 1e-9 * m.stepSeconds);
}

TEST(TrainingSim, DeterministicAcrossRuns)
{
    Rig rig(dnn::makeVggA());
    const auto plan = core::makeHyparPlan(rig.model, 4);
    const auto a = rig.simulator.simulate(plan);
    const auto b = rig.simulator.simulate(plan);
    EXPECT_DOUBLE_EQ(a.stepSeconds, b.stepSeconds);
    EXPECT_DOUBLE_EQ(a.energy.totalJ(), b.energy.totalJ());
    EXPECT_DOUBLE_EQ(a.commBytes, b.commBytes);
}

TEST(TrainingSim, HyparNeverSlowerThanDefaults)
{
    // Same compute, strictly less communication over the same levels:
    // HyPar's simulated step must beat or match DP and MP everywhere.
    for (const auto &net : dnn::allModels()) {
        Rig rig(net);
        const auto dp = rig.simulator.simulate(
            core::makeDataParallelPlan(net, 4));
        const auto mp = rig.simulator.simulate(
            core::makeModelParallelPlan(net, 4));
        const auto hp =
            rig.simulator.simulate(core::makeHyparPlan(rig.model, 4));
        EXPECT_LE(hp.stepSeconds, dp.stepSeconds * (1 + 1e-9))
            << net.name();
        EXPECT_LE(hp.stepSeconds, mp.stepSeconds * (1 + 1e-9))
            << net.name();
    }
}

TEST(TrainingSim, EnergyBreakdownAllPositive)
{
    Rig rig(dnn::makeLenetC());
    const auto m = rig.simulator.simulate(
        core::makeDataParallelPlan(rig.net, 4));
    EXPECT_GT(m.energy.computeJ, 0.0);
    EXPECT_GT(m.energy.sramJ, 0.0);
    EXPECT_GT(m.energy.dramJ, 0.0);
    EXPECT_GT(m.energy.commJ, 0.0);
    EXPECT_DOUBLE_EQ(m.energy.totalJ(),
                     m.energy.computeJ + m.energy.sramJ + m.energy.dramJ +
                         m.energy.commJ);
}

TEST(TrainingSim, GradOverlapNeverHurts)
{
    for (const auto &name : {"AlexNet", "VGG-A", "SFC"}) {
        dnn::Network net = dnn::modelByName(name);
        SimOptions overlap;
        overlap.overlapGradComm = true;
        Rig sync(net, 4);
        Rig async(net, 4, overlap);
        const auto plan = core::makeDataParallelPlan(net, 4);
        const auto t_sync = sync.simulator.simulate(plan).stepSeconds;
        const auto t_async = async.simulator.simulate(plan).stepSeconds;
        EXPECT_LE(t_async, t_sync * (1 + 1e-9)) << name;
        EXPECT_GT(t_async, 0.0);
    }
}

TEST(TrainingSim, TraceRecordsTasksInOrder)
{
    SimOptions opts;
    opts.recordTrace = true;
    Rig rig(dnn::makeLenetC(), 2, opts);
    const auto plan = core::makeDataParallelPlan(rig.net, 2);
    const auto m = rig.simulator.simulate(plan);
    const auto &trace = rig.simulator.lastTrace();
    ASSERT_FALSE(trace.empty());

    // First task is layer 0's forward compute; last ends at step end.
    EXPECT_EQ(trace.front().label, "fwd:conv1");
    double max_end = 0.0;
    for (const auto &e : trace) {
        EXPECT_LE(e.start, e.end);
        max_end = std::max(max_end, e.end);
    }
    EXPECT_DOUBLE_EQ(max_end, m.stepSeconds);

    // Backward skips layer 0: no bwd:conv1 entry.
    for (const auto &e : trace)
        EXPECT_NE(e.label, "bwd:conv1");
}

TEST(TrainingSim, SteadyStateEqualsSingleStepWithoutOverlap)
{
    // Without gradient overlap the steps serialize perfectly, so the
    // steady-state cadence equals the single-step latency.
    Rig rig(dnn::makeAlexNet());
    const auto plan = core::makeDataParallelPlan(rig.net, 4);
    const auto one = rig.simulator.simulate(plan);
    const auto steady = rig.simulator.simulateSteadyState(plan, 4);
    EXPECT_NEAR(steady.stepSeconds, one.stepSeconds,
                1e-9 * one.stepSeconds);
    // Totals cover all four steps.
    EXPECT_NEAR(steady.commBytes, 4.0 * one.commBytes,
                1e-6 * steady.commBytes);
    EXPECT_NEAR(steady.energy.totalJ(), 4.0 * one.energy.totalJ(),
                1e-6 * steady.energy.totalJ());
}

TEST(TrainingSim, SteadyStateOverlapPipelinesGradients)
{
    // With overlap, tail gradient reductions drain under the next
    // step's forward: the steady-state cadence is at most the
    // single-step latency and at least the busier of the two
    // resources.
    SimOptions overlap;
    overlap.overlapGradComm = true;
    Rig rig(dnn::makeVggA(), 4, overlap);
    const auto plan = core::makeDataParallelPlan(rig.net, 4);

    const auto one = rig.simulator.simulate(plan);
    const auto steady = rig.simulator.simulateSteadyState(plan, 5);
    EXPECT_LE(steady.stepSeconds, one.stepSeconds * (1 + 1e-9));
    EXPECT_GT(steady.stepSeconds, 0.0);

    // It can never beat the per-step network drain (the interconnect
    // is the bottleneck resource for DP VGG-A).
    const double net_per_step = steady.networkBusySeconds / 5.0;
    EXPECT_GE(steady.stepSeconds, net_per_step * (1 - 1e-9));
}

TEST(TrainingSim, SteadyStateMatchesReplicatedTapeReplay)
{
    // Bit-identity regression for the no-replication rewrite: the
    // steady-state cadence must equal a reference that *materializes*
    // the replicated schedule — the one-step two-tape decomposition
    // (overlapSchedule) replayed `steps` times through the identical
    // resource algebra. Exact comparison, no tolerance: both paths
    // must perform the same float operations in the same order.
    for (const bool overlap : {false, true}) {
        SimOptions opts;
        opts.overlapGradComm = overlap;
        for (const auto &name : {"Lenet-c", "AlexNet", "VGG-A"}) {
            Rig rig(dnn::modelByName(name), 4, opts);
            const auto plan = core::makeDataParallelPlan(rig.net, 4);
            const std::size_t steps = 5;
            const auto steady =
                rig.simulator.simulateSteadyState(plan, steps);

            const sim::TapeSchedule tape =
                rig.simulator.overlapSchedule(plan);
            double serial = 0.0;
            double network = 0.0;
            std::vector<double> finish(steps, 0.0);
            for (std::size_t s = 0; s < steps; ++s) {
                for (const sim::TapeTask &t : tape.tasks) {
                    if (!t.exchange) {
                        serial += t.seconds;
                    } else if (t.async) {
                        network =
                            std::max(network, serial) + t.seconds;
                    } else {
                        serial = std::max(serial, network) + t.seconds;
                        network = serial;
                    }
                }
                finish[s] = std::max(serial, network);
            }
            const double ref =
                (finish[steps - 1] - finish[0]) /
                static_cast<double>(steps - 1);
            EXPECT_DOUBLE_EQ(steady.stepSeconds, ref)
                << name << " overlap=" << overlap;
        }
    }
}

TEST(TrainingSim, SteadyStateTotalsScaleExactly)
{
    // Per-step accounting is built once and scaled, so the multi-step
    // totals are exact multiples of the single-step metrics (the old
    // replicate-the-task-list path re-summed them with different
    // rounding; the contract is now exact).
    Rig rig(dnn::makeAlexNet());
    const auto plan = core::makeDataParallelPlan(rig.net, 4);
    const auto one = rig.simulator.simulate(plan);
    const auto steady = rig.simulator.simulateSteadyState(plan, 7);
    EXPECT_DOUBLE_EQ(steady.commBytes, 7.0 * one.commBytes);
    EXPECT_DOUBLE_EQ(steady.energy.computeJ, 7.0 * one.energy.computeJ);
    EXPECT_DOUBLE_EQ(steady.energy.sramJ, 7.0 * one.energy.sramJ);
    EXPECT_DOUBLE_EQ(steady.energy.dramJ, 7.0 * one.energy.dramJ);
    EXPECT_DOUBLE_EQ(steady.energy.commJ, 7.0 * one.energy.commJ);

    // steps == 1 is simulate(): field-for-field identical.
    const auto single = rig.simulator.simulateSteadyState(plan, 1);
    EXPECT_EQ(single, one);
}

TEST(TrainingSim, SteadyStateRejectsZeroSteps)
{
    Rig rig(dnn::makeLenetC());
    const auto plan = core::makeDataParallelPlan(rig.net, 4);
    EXPECT_THROW((void)rig.simulator.simulateSteadyState(plan, 0),
                 util::FatalError);
}

TEST(TrainingSim, RejectsMismatchedPlanDepth)
{
    Rig rig(dnn::makeLenetC(), 4);
    const auto plan = core::makeDataParallelPlan(rig.net, 2);
    EXPECT_THROW((void)rig.simulator.simulate(plan), util::FatalError);
}

TEST(TrainingSim, SamplesPerSecond)
{
    Rig rig(dnn::makeLenetC());
    const auto m = rig.simulator.simulate(
        core::makeDataParallelPlan(rig.net, 4));
    EXPECT_NEAR(m.samplesPerSec(256), 256.0 / m.stepSeconds, 1e-9);
    const std::string s = m.summary();
    EXPECT_NE(s.find("step"), std::string::npos);
    EXPECT_NE(s.find("comm"), std::string::npos);
}
