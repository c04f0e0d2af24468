/**
 * @file
 * Queue-driven reference simulator: the oracle that pins the library's
 * closed-form step schedule to the paper's "event-driven simulation"
 * (Section 6.1).
 *
 * The library schedules a step with the two-clock algebra in
 * src/sim/training_sim.cc (serial chain + network, async exchanges at
 * max(network, serial), synchronous exchanges joining the two). This
 * reference takes only the task list — durations, flags and labels of
 * TrainingSimulator::overlapSchedule(plan).tasks; the resolved
 * start/end there are ignored — and resolves it event by event: each
 * task is a callback on tests::EventQueue whose completion schedules
 * the next one, and a step finishes at the latest task end seen so
 * far. Steady state replicates the task list `steps` times, the way
 * the simulator originally materialized it.
 */

#ifndef HYPAR_TESTS_SUPPORT_QUEUE_REFERENCE_HH
#define HYPAR_TESTS_SUPPORT_QUEUE_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/plan.hh"
#include "sim/metrics.hh"
#include "sim/training_sim.hh"
#include "event_queue.hh"

namespace hypar::tests {

/** What the reference resolves: the metrics and the full task trace. */
struct QueueRun
{
    sim::StepMetrics metrics;
    std::vector<sim::TraceEntry> trace; //!< every dispatched task
};

/**
 * Reference for simulator.simulateSteadyState(plan, steps) (steps = 1
 * is simulate()). The schedule — stepSeconds, the busy seconds, the
 * phase breakdown and the trace — comes from the event queue alone.
 * commBytes and energy do not depend on the schedule; they are one
 * simulate()'s totals scaled by `steps`, so they check only that the
 * steady-state path scales its accounting exactly.
 */
inline QueueRun
queueSimulate(const sim::TrainingSimulator &simulator,
              const core::HierarchicalPlan &plan, std::size_t steps = 1)
{
    QueueRun run;
    sim::StepMetrics &metrics = run.metrics;
    const sim::StepMetrics one = simulator.simulate(plan);
    const auto steps_d = static_cast<double>(steps);
    metrics.commBytes = one.commBytes * steps_d;
    metrics.energy.computeJ = one.energy.computeJ * steps_d;
    metrics.energy.sramJ = one.energy.sramJ * steps_d;
    metrics.energy.dramJ = one.energy.dramJ * steps_d;
    metrics.energy.commJ = one.energy.commJ * steps_d;

    const std::vector<sim::TapeTask> step =
        simulator.overlapSchedule(plan).tasks;
    std::vector<sim::TapeTask> tasks;
    for (std::size_t s = 0; s < steps; ++s)
        tasks.insert(tasks.end(), step.begin(), step.end());

    // The resource algebra applied per dispatched task: the serial
    // chain models the lockstep dependence (compute -> exchange -> next
    // layer); async exchanges contend for the network but do not block
    // the chain.
    double serial_free = 0.0;  // when the lockstep chain may continue
    double network_free = 0.0; // when the interconnect is idle again
    auto applyTask = [&](const sim::TapeTask &t) {
        double start = 0.0;
        if (!t.exchange) {
            start = serial_free;
            serial_free = start + t.seconds;
            metrics.computeBusySeconds += t.seconds;
        } else if (t.async) {
            // Data is ready once the producing compute finished
            // (serial_free); the network may still be draining.
            start = std::max(network_free, serial_free);
            network_free = start + t.seconds;
        } else {
            start = std::max(serial_free, network_free);
            serial_free = start + t.seconds;
            network_free = serial_free;
        }
        const double end = start + t.seconds;
        switch (t.phase) {
          case 0: metrics.phases.forward += t.seconds; break;
          case 1: metrics.phases.backward += t.seconds; break;
          default: metrics.phases.gradient += t.seconds; break;
        }
        if (t.exchange)
            metrics.networkBusySeconds += t.seconds;
        run.trace.push_back(sim::TraceEntry{start, end, t.label});
        return end;
    };

    EventQueue queue;
    double sim_end = 0.0;
    std::vector<double> step_finish;
    std::size_t next = 0;
    std::function<void()> dispatch = [&]() {
        if (next >= tasks.size())
            return;
        const double end = applyTask(tasks[next]);
        sim_end = std::max(sim_end, end);
        ++next;
        if (next % step.size() == 0)
            step_finish.push_back(sim_end);

        // Completion of this task releases the next one. Async
        // exchanges do not hold the serial chain back, so the next
        // task's logical end may lie before this event's end; clamp
        // the bookkeeping event into the present (start/end come from
        // the resource algebra, not from event time).
        queue.schedule(std::max(end, queue.now()), dispatch);
    };
    queue.schedule(0.0, dispatch);
    queue.run();

    metrics.stepSeconds =
        steps == 1 ? sim_end
                   : (step_finish.back() - step_finish.front()) /
                         (steps_d - 1.0);
    return run;
}

} // namespace hypar::tests

#endif // HYPAR_TESTS_SUPPORT_QUEUE_REFERENCE_HH
