/**
 * @file
 * Unit tests for the simulation core: virtual clock and event queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/context.hh"

namespace viyojit::sim
{
namespace
{

TEST(ClockTest, StartsAtZero)
{
    VirtualClock clock;
    EXPECT_EQ(clock.now(), 0u);
}

TEST(ClockTest, AdvanceAccumulates)
{
    VirtualClock clock;
    clock.advance(10);
    clock.advance(5);
    EXPECT_EQ(clock.now(), 15u);
}

TEST(ClockTest, AdvanceToAbsolute)
{
    VirtualClock clock;
    clock.advanceTo(100);
    EXPECT_EQ(clock.now(), 100u);
}

TEST(ClockTest, Reset)
{
    VirtualClock clock;
    clock.advance(7);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

TEST(EventQueueTest, RunsInTimeOrder)
{
    VirtualClock clock;
    EventQueue q(clock);
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(clock.now(), 30u);
}

TEST(EventQueueTest, SameTickFifo)
{
    VirtualClock clock;
    EventQueue q(clock);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i]() { order.push_back(i); });
    q.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary)
{
    VirtualClock clock;
    EventQueue q(clock);
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(20, [&]() { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(clock.now(), 15u);
    EXPECT_EQ(q.pendingCount(), 1u);
}

TEST(EventQueueTest, RunUntilInclusive)
{
    VirtualClock clock;
    EventQueue q(clock);
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.runUntil(10);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, LateEventDoesNotRewindClock)
{
    VirtualClock clock;
    EventQueue q(clock);
    q.schedule(10, []() {});
    clock.advanceTo(50); // caller modelled a synchronous cost
    q.runUntil(50);
    EXPECT_EQ(clock.now(), 50u);
}

TEST(EventQueueTest, ScheduleAfterUsesNow)
{
    VirtualClock clock;
    EventQueue q(clock);
    clock.advanceTo(100);
    Tick fired_at = 0;
    q.scheduleAfter(25, [&]() { fired_at = clock.now(); });
    q.drain();
    EXPECT_EQ(fired_at, 125u);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    VirtualClock clock;
    EventQueue q(clock);
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            q.scheduleAfter(10, chain);
    };
    q.schedule(10, chain);
    q.drain();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(clock.now(), 50u);
}

TEST(EventQueueTest, NextEventTimeAndEmpty)
{
    VirtualClock clock;
    EventQueue q(clock);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTime(), maxTick);
    q.schedule(42, []() {});
    EXPECT_EQ(q.nextEventTime(), 42u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, ClearDropsEvents)
{
    VirtualClock clock;
    EventQueue q(clock);
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.clear();
    q.drain();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, RunOneReturnsFalseWhenEmpty)
{
    VirtualClock clock;
    EventQueue q(clock);
    EXPECT_FALSE(q.runOne());
}

TEST(SimContextTest, BundlesSingletons)
{
    SimContext ctx;
    EXPECT_EQ(ctx.now(), 0u);
    ctx.clock().advance(5);
    EXPECT_EQ(ctx.now(), 5u);
}

} // namespace
} // namespace viyojit::sim
