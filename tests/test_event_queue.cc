/**
 * @file
 * Tests for the discrete-event queue behind the queue-driven oracle
 * (tests/support/event_queue.hh): ordering, tie-breaking, nested
 * scheduling, and misuse detection.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "support/event_queue.hh"
#include "util/logging.hh"

using namespace hypar;
using tests::EventQueue;

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
    EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, SimultaneousEventsKeepInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(1.0, [&, i] { order.push_back(i); });
    q.run();
    const std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue q;
    std::vector<double> times;
    std::function<void()> tick = [&] {
        times.push_back(q.now());
        if (times.size() < 4)
            q.scheduleAfter(0.5, tick);
    };
    q.schedule(0.0, tick);
    q.run();
    ASSERT_EQ(times.size(), 4u);
    EXPECT_DOUBLE_EQ(times[3], 1.5);
}

TEST(EventQueue, RejectsPastAndNegative)
{
    EventQueue q;
    q.schedule(5.0, [] {});
    q.run();
    EXPECT_THROW(q.schedule(1.0, [] {}), util::PanicError);
    EXPECT_THROW(q.scheduleAfter(-1.0, [] {}), util::PanicError);
}

TEST(EventQueue, ZeroDelaySelfScheduleTerminates)
{
    EventQueue q;
    int count = 0;
    std::function<void()> again = [&] {
        if (++count < 100)
            q.scheduleAfter(0.0, again);
    };
    q.schedule(0.0, again);
    q.run();
    EXPECT_EQ(count, 100);
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
}
