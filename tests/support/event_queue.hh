/**
 * @file
 * Discrete-event simulation core for the test oracles: a time-ordered
 * queue of callbacks with deterministic FIFO ordering among
 * simultaneous events (insertion sequence breaks ties, so simulation
 * results are reproducible regardless of scheduling patterns).
 *
 * The library schedules a training step in closed form (the two-clock
 * algebra in src/sim/training_sim.cc); this queue drives the
 * independent event-by-event reference in queue_reference.hh.
 */

#ifndef HYPAR_TESTS_SUPPORT_EVENT_QUEUE_HH
#define HYPAR_TESTS_SUPPORT_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace hypar::tests {

/** Simulation timestamp in seconds. */
using Tick = double;

/** Minimal deterministic discrete-event queue. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * Schedule `cb` at absolute time `when`; panics if `when` is in the
     * simulated past.
     */
    void
    schedule(Tick when, Callback cb)
    {
        if (when < now_)
            util::panic("EventQueue: scheduling into the past");
        queue_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    /** Schedule `cb` `delay` seconds from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        if (delay < 0.0)
            util::panic("EventQueue: negative delay");
        schedule(now_ + delay, std::move(cb));
    }

    /** Run until no events remain. */
    void
    run()
    {
        while (!queue_.empty()) {
            // The callback may schedule more events; copy out first.
            Event ev = queue_.top();
            queue_.pop();
            now_ = ev.when;
            ++processed_;
            ev.cb();
        }
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    bool empty() const { return queue_.empty(); }

    /** Events processed by run() so far. */
    std::uint64_t processed() const { return processed_; }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    Tick now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace hypar::tests

#endif // HYPAR_TESTS_SUPPORT_EVENT_QUEUE_HH
