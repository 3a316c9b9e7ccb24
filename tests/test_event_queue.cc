/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.hh"

using namespace csync;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityOrdersWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3, [&] { order.push_back(2); }, EventPri::Arbitrate);
    eq.schedule(3, [&] { order.push_back(1); }, EventPri::Default);
    eq.schedule(3, [&] { order.push_back(3); }, EventPri::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(5, [&] { ++ran; });
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(15, [&] { ++ran; });
    EXPECT_EQ(eq.run(10), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&] {
        ++count;
        eq.scheduleIn(1, [&] { ++count; });
    });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, RunStepsBoundsExecution)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(Tick(i), [&] { ++count; });
    EXPECT_EQ(eq.runSteps(4), 4u);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

// Pooled-allocation stress: many events across recycled nodes must keep
// FIFO order within each tick.  Interleaves the scheduling of two ticks
// so heap sifting and free-list reuse both happen mid-stream.
TEST(EventQueue, PooledNodesPreserveFifoUnderStress)
{
    EventQueue eq;
    const int kRounds = 50;
    const int kPerTick = 200;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<int> order;
        Tick base = eq.now() + 1;
        for (int i = 0; i < kPerTick; ++i) {
            eq.schedule(base, [&order, i] { order.push_back(i); });
            eq.schedule(base + 1,
                        [&order, i] { order.push_back(kPerTick + i); });
        }
        eq.run(base + 1);
        ASSERT_EQ(order.size(), std::size_t(2 * kPerTick));
        for (int i = 0; i < 2 * kPerTick; ++i)
            ASSERT_EQ(order[i], i) << "round " << round;
    }
    EXPECT_EQ(eq.executed(), std::uint64_t(kRounds * 2 * kPerTick));
}

// Captures both below and above the inline small-buffer capacity must
// run correctly (the large one exercises the boxed fallback path).
TEST(EventQueue, InlineAndBoxedCapturesBothRun)
{
    EventQueue eq;
    std::uint64_t small_sum = 0, big_sum = 0;

    std::uint64_t a = 3, b = 4;
    eq.schedule(1, [&small_sum, a, b] { small_sum = a + b; });

    struct Big
    {
        std::uint64_t vals[40]; // > EventCallback::inlineBytes
    };
    static_assert(sizeof(Big) > EventCallback::inlineBytes);
    Big big{};
    for (int i = 0; i < 40; ++i)
        big.vals[i] = std::uint64_t(i);
    eq.schedule(1, [&big_sum, big] {
        for (std::uint64_t v : big.vals)
            big_sum += v;
    });

    eq.run();
    EXPECT_EQ(small_sum, 7u);
    EXPECT_EQ(big_sum, 780u);
}

// An executing event may schedule new events; the freed node is legal to
// reuse immediately.  Chain deeply to churn one node through the free
// list many times, and fan out to force fresh chunk allocation mid-run.
TEST(EventQueue, ScheduleDuringExecuteReusesNodesSafely)
{
    EventQueue eq;
    int chain = 0;
    std::function<void()> link = [&] {
        if (++chain < 1000)
            eq.scheduleIn(1, [&] { link(); });
    };
    eq.schedule(1, [&] { link(); });

    int fanout = 0;
    eq.schedule(1, [&] {
        for (int i = 0; i < 300; ++i)
            eq.scheduleIn(Tick(1 + i % 7), [&fanout] { ++fanout; });
    });

    eq.run();
    EXPECT_EQ(chain, 1000);
    EXPECT_EQ(fanout, 300);
}

// --------------------------------------------------------------------
// runBounded: the directed driver's bounded settle
// --------------------------------------------------------------------

TEST(RunBounded, StopsAtHorizonInclusive)
{
    EventQueue eq;
    std::vector<Tick> ran;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&ran, &eq] { ran.push_back(eq.now()); });
    EXPECT_EQ(eq.runBounded(5, 1000), 5u);
    EXPECT_EQ(ran.size(), 5u);
    EXPECT_EQ(eq.now(), 5u); // never past the last executed event
    EXPECT_EQ(eq.nextEventTick(), 6u);
    EXPECT_EQ(eq.runBounded(10, 1000), 5u);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(eq.empty());
}

TEST(RunBounded, StopsAtEventBudget)
{
    EventQueue eq;
    int ran = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&ran] { ++ran; });
    EXPECT_EQ(eq.runBounded(maxTick, 3), 3u);
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(RunBounded, EmptyWindowExecutesNothing)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    EXPECT_EQ(eq.runBounded(50, 1000), 0u);
    EXPECT_EQ(eq.now(), 0u); // horizon alone must not advance time
    EXPECT_EQ(eq.nextEventTick(), 100u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduling into the past");
}
