/**
 * @file
 * Unit tests for the two-tape decomposition of the overlapped
 * gradient-communication schedule (TrainingSimulator::overlapSchedule
 * and the overlap branch of sweepNeighborhood): on hand-computable
 * 2-3 layer networks the serial/network chain split must reproduce the
 * queue-driven reference (tests/support/queue_reference.hh) exactly —
 * same task times, same step latency — and tracing sweeps must emit
 * the same per-task trace as a direct simulate().
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/strategies.hh"
#include "dnn/builder.hh"
#include "dnn/model_zoo.hh"
#include "noc/htree.hh"
#include "sim/training_sim.hh"
#include "support/queue_reference.hh"

using namespace hypar;
using core::CommConfig;
using core::CommModel;
using core::HierarchicalPlan;
using core::Parallelism;
using sim::SimOptions;
using sim::TapeSchedule;
using sim::TapeTask;
using sim::TrainingSimulator;

namespace {

struct Rig
{
    explicit Rig(const dnn::Network &n, std::size_t levels = 2,
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

/** A tiny two-fc-layer network (both layers hand-traceable). */
dnn::Network
twoLayerNet()
{
    dnn::NetworkBuilder b("two", {16, 1, 1});
    b.fc("fc1", 64).fc("fc2", 32);
    return b.build();
}

/** Three layers so a dp-mp boundary exists mid-network. */
dnn::Network
threeLayerNet()
{
    dnn::NetworkBuilder b("three", {16, 1, 1});
    b.fc("fc1", 64).fc("fc2", 128).fc("fc3", 32);
    return b.build();
}

} // namespace

// The two-tape schedule must reproduce the event queue exactly: with
// recordTrace on, every resolved (start, end, label) of the schedule
// equals the trace the queue-driven reference resolves, and the tape
// ends bound the step.
TEST(OverlapSchedule, MatchesEventQueueTraceTaskByTask)
{
    for (const bool overlap : {false, true}) {
        SimOptions opts;
        opts.overlapGradComm = overlap;
        opts.recordTrace = true;
        Rig rig(threeLayerNet(), 2, opts);

        HierarchicalPlan plan;
        plan.levels = {{Parallelism::kData, Parallelism::kModel,
                        Parallelism::kData},
                       {Parallelism::kData, Parallelism::kData,
                        Parallelism::kModel}};

        const tests::QueueRun ref =
            tests::queueSimulate(rig.simulator, plan);
        const auto &metrics = ref.metrics;
        const auto &trace = ref.trace;
        const TapeSchedule sched = rig.simulator.overlapSchedule(plan);

        ASSERT_EQ(sched.tasks.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(sched.tasks[i].start, trace[i].start)
                << "task " << i << " overlap " << overlap;
            EXPECT_EQ(sched.tasks[i].end, trace[i].end)
                << "task " << i << " overlap " << overlap;
            EXPECT_EQ(sched.tasks[i].label, trace[i].label)
                << "task " << i << " overlap " << overlap;
        }
        EXPECT_EQ(sched.stepSeconds, metrics.stepSeconds);
        EXPECT_EQ(sched.stepSeconds,
                  std::max(sched.serialEnd, sched.networkEnd));
    }
}

// Without overlap every task rides the serial tape and the step is the
// plain sum of all task durations.
TEST(OverlapSchedule, DegeneratesToSerialChainWithoutOverlap)
{
    Rig rig(twoLayerNet(), 2);
    const auto plan = core::makeDataParallelPlan(rig.net, 2);
    const TapeSchedule sched = rig.simulator.overlapSchedule(plan);

    ASSERT_FALSE(sched.tasks.empty());
    double sum = 0.0;
    for (const auto &t : sched.tasks) {
        EXPECT_EQ(t.tape, TapeTask::Tape::kSerial);
        EXPECT_FALSE(t.async);
        EXPECT_EQ(t.start, sum);
        sum += t.seconds;
        EXPECT_EQ(t.end, sum);
    }
    EXPECT_EQ(sched.stepSeconds, sched.serialEnd);
    EXPECT_EQ(sched.stepSeconds,
              rig.simulator.simulate(plan).stepSeconds);
}

// Hand-computable all-dp two-layer case at H = 1: the task list is
// fwd0 fwd1 bwd1 grad0 gradx0 grad1 gradx1 (dp-dp boundaries move no
// tensors), the gradient reductions ride the network tape, and the
// two-tape recurrence resolves by hand:
//
//   serial  = c_f0 + c_f1 + c_b1 + c_g0 + c_g1
//   n0      = (c_f0 + c_f1 + c_b1 + c_g0) + e0   (network was idle)
//   n1      = max(n0, serial) + e1
//   step    = max(serial, n1)
TEST(OverlapSchedule, HandComputedTwoLayerAllDp)
{
    SimOptions opts;
    opts.overlapGradComm = true;
    Rig rig(twoLayerNet(), 1, opts);
    const auto plan = core::makeDataParallelPlan(rig.net, 1);
    const TapeSchedule sched = rig.simulator.overlapSchedule(plan);

    ASSERT_EQ(sched.tasks.size(), 7u);
    const auto &t = sched.tasks;
    // Tape and phase assignment.
    for (const std::size_t i : {0u, 1u, 2u, 3u, 5u}) {
        EXPECT_EQ(t[i].tape, TapeTask::Tape::kSerial) << i;
        EXPECT_FALSE(t[i].exchange) << i;
    }
    for (const std::size_t i : {4u, 6u}) {
        EXPECT_EQ(t[i].tape, TapeTask::Tape::kNetwork) << i;
        EXPECT_TRUE(t[i].exchange) << i;
        EXPECT_TRUE(t[i].async) << i;
        EXPECT_EQ(t[i].phase, 2) << i;
    }

    // The recurrence, replayed by hand from the task durations.
    const double serial_at_g0 =
        t[0].seconds + t[1].seconds + t[2].seconds + t[3].seconds;
    const double serial = serial_at_g0 + t[5].seconds;
    const double n0 = serial_at_g0 + t[4].seconds;
    const double n1 = std::max(n0, serial) + t[6].seconds;

    EXPECT_EQ(t[4].start, serial_at_g0);
    EXPECT_EQ(t[4].end, n0);
    EXPECT_EQ(t[6].end, n1);
    EXPECT_EQ(sched.serialEnd, serial);
    EXPECT_EQ(sched.networkEnd, n1);
    EXPECT_EQ(sched.stepSeconds, std::max(serial, n1));
    EXPECT_EQ(sched.stepSeconds,
              rig.simulator.simulate(plan).stepSeconds);

    // Overlap hides all but the tail reduction: the step is strictly
    // shorter than the serialized schedule.
    double total = 0.0;
    for (const auto &task : sched.tasks)
        total += task.seconds;
    EXPECT_LT(sched.stepSeconds, total);
}

// With overlap on, the network tape carries exactly the gradient
// reductions; forward/backward exchanges stay synchronous and join the
// tapes (a later async task can never start before them).
TEST(OverlapSchedule, NetworkTapeCarriesExactlyTheGradientReductions)
{
    SimOptions opts;
    opts.overlapGradComm = true;
    Rig rig(dnn::makeLenetC(), 4, opts);
    const auto plan = core::makeHyparPlan(rig.model, 4);
    const TapeSchedule sched = rig.simulator.overlapSchedule(plan);

    double last_sync_end = 0.0;
    std::size_t async_count = 0;
    std::size_t sync_exchanges = 0;
    for (const auto &t : sched.tasks) {
        if (t.tape == TapeTask::Tape::kNetwork) {
            ++async_count;
            EXPECT_TRUE(t.exchange);
            EXPECT_EQ(t.phase, 2); // gradient reductions only
            EXPECT_GE(t.start, last_sync_end);
        } else if (t.exchange) {
            ++sync_exchanges;
            EXPECT_FALSE(t.async);
            last_sync_end = t.end;
        }
    }
    EXPECT_GT(async_count, 0u);
    EXPECT_GT(sync_exchanges, 0u);
    EXPECT_EQ(sched.stepSeconds,
              rig.simulator.simulate(plan).stepSeconds);
}

// Tracing sweeps replay the variant tables too (the fallback to
// per-mask simulate() is gone): for every mask, the metrics AND the
// full per-task trace — start, end, label — must equal a direct
// simulate() of the substituted plan, in both overlap modes.
TEST(OverlapSchedule, SweepRecordTraceMatchesPerMaskSimulate)
{
    for (const bool overlap : {false, true}) {
        SimOptions opts;
        opts.overlapGradComm = overlap;
        opts.recordTrace = true;
        Rig rig(threeLayerNet(), 2, opts);
        Rig oracle(threeLayerNet(), 2, opts);
        const auto base = core::makeDataParallelPlan(rig.net, 2);

        for (std::size_t level = 0; level < 2; ++level) {
            std::uint64_t visited = 0;
            rig.simulator.sweepNeighborhood(
                base, level,
                [&](std::uint64_t mask, const sim::StepMetrics &m) {
                    EXPECT_EQ(mask, visited++);
                    HierarchicalPlan plan = base;
                    plan.levels[level] =
                        core::levelPlanFromMask(mask, rig.net.size());
                    const auto ref = oracle.simulator.simulate(plan);
                    EXPECT_EQ(m.stepSeconds, ref.stepSeconds);
                    EXPECT_EQ(m.commBytes, ref.commBytes);

                    const auto &got = rig.simulator.lastTrace();
                    const auto &want = oracle.simulator.lastTrace();
                    ASSERT_EQ(got.size(), want.size())
                        << "overlap " << overlap << " level " << level
                        << " mask " << mask;
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        EXPECT_EQ(got[i].start, want[i].start) << i;
                        EXPECT_EQ(got[i].end, want[i].end) << i;
                        EXPECT_EQ(got[i].label, want[i].label) << i;
                    }
                });
            EXPECT_EQ(visited, std::uint64_t{1} << rig.net.size());
        }
    }
}

// After a tracing sweep, lastTrace() holds the final mask's trace —
// identical to tracing the substituted plan directly.
TEST(OverlapSchedule, SweepRecordTraceKeepsLastMaskTrace)
{
    SimOptions opts;
    opts.overlapGradComm = true;
    opts.recordTrace = true;
    Rig rig(twoLayerNet(), 2, opts);
    const auto base = core::makeDataParallelPlan(rig.net, 2);

    std::size_t visited = 0;
    rig.simulator.sweepNeighborhood(
        base, 1, [&](std::uint64_t, const sim::StepMetrics &) {
            ++visited;
        });
    ASSERT_EQ(visited, std::size_t{1} << rig.net.size());
    const auto swept_trace = rig.simulator.lastTrace();

    HierarchicalPlan last = base;
    last.levels[1] = core::levelPlanFromMask(
        (std::uint64_t{1} << rig.net.size()) - 1, rig.net.size());
    (void)rig.simulator.simulate(last);
    const auto &direct = rig.simulator.lastTrace();

    ASSERT_EQ(swept_trace.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(swept_trace[i].start, direct[i].start) << i;
        EXPECT_EQ(swept_trace[i].end, direct[i].end) << i;
        EXPECT_EQ(swept_trace[i].label, direct[i].label) << i;
    }
}
