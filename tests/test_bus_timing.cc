/**
 * @file
 * Tests for the bus timing/capability knobs: words per cycle, memory
 * latency, non-concurrent flushes, and the invalidate-signal capability
 * (Feature 4's Multibus-vs-Synapse-bus distinction).
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

using namespace csync;
using namespace csync::test;

namespace
{

constexpr Addr X = 0x1000;

SystemConfig
timedOpts(const std::string &proto, const BusTiming &t)
{
    SystemConfig c = opts(proto);
    c.timing = t;
    return c;
}

} // namespace

TEST(BusTiming, DataCyclesRespectBusWidth)
{
    BusTiming t;
    t.wordsPerCycle = 1;
    EXPECT_EQ(t.dataCycles(4), 4u);
    t.wordsPerCycle = 2;
    EXPECT_EQ(t.dataCycles(4), 2u);
    EXPECT_EQ(t.dataCycles(5), 3u);    // rounds up
    t.wordsPerCycle = 0;               // defensive: treated as 1
    EXPECT_EQ(t.dataCycles(4), 4u);
}

TEST(BusTiming, WiderBusShortensFetches)
{
    BusTiming narrow;
    BusTiming wide;
    wide.wordsPerCycle = 4;

    Scenario sn(timedOpts("illinois", narrow));
    sn.run(0, rd(X));
    Tick t_narrow = sn.system().now();

    Scenario sw(timedOpts("illinois", wide));
    sw.run(0, rd(X));
    Tick t_wide = sw.system().now();

    EXPECT_LT(t_wide, t_narrow);
}

TEST(BusTiming, MemoryLatencyAddsToMemorySupplies)
{
    BusTiming slow;
    slow.memLatency = 20;
    Scenario s(timedOpts("illinois", slow));
    s.run(0, rd(X));
    // arb(1) + addr(1) + memLatency(20) + 4 data + hit delivery.
    EXPECT_GE(s.system().now(), 26u);
}

TEST(BusTiming, CacheToCacheAvoidsMemoryLatency)
{
    BusTiming slow;
    slow.memLatency = 20;
    Scenario s(timedOpts("illinois", slow));
    s.run(0, rd(X));
    Tick before = s.system().now();
    s.run(1, rd(X));    // supplied cache-to-cache (Illinois)
    Tick c2c_latency = s.system().now() - before;
    EXPECT_LT(c2c_latency, 20u);
}

TEST(BusTiming, NonConcurrentFlushCostsExtra)
{
    BusTiming fast;
    BusTiming slow_flush;
    slow_flush.concurrentFlush = false;

    auto fetch_after_dirty = [&](const BusTiming &t) {
        Scenario s(timedOpts("illinois", t));
        s.run(0, wr(X, 1));    // M in cache 0
        Tick before = s.system().now();
        s.run(1, rd(X));       // c2c with flush (Feature 7 'F')
        return s.system().now() - before;
    };
    EXPECT_GT(fetch_after_dirty(slow_flush), fetch_after_dirty(fast));
}

TEST(BusTiming, NoInvalidateSignalWritesThroughOnUpgrade)
{
    BusTiming multibus;
    multibus.invalidateDuringFetch = false;
    Scenario s(timedOpts("yen", multibus));
    s.run(0, rd(X));
    s.run(1, rd(X));
    double ww = s.system().memory().wordWrites.value();
    s.run(0, wr(X, 7));
    // Gaining write privilege wrote the word through to memory.
    EXPECT_GT(s.system().memory().wordWrites.value(), ww);
    EXPECT_EQ(s.system().memory().readWord(X), 7u);
    EXPECT_EQ(s.state(1, X), Inv);
    EXPECT_DOUBLE_EQ(
        s.system().checker().violationCount.value(), 0.0);
}

TEST(BusTiming, SignalCyclesBoundUpgradeTenure)
{
    Scenario s(opts("illinois"));
    s.run(0, rd(X));
    s.run(1, rd(X));
    double busy = s.system().bus().busyCycles.value();
    s.run(0, wr(X, 1));
    // arb(1) + signal(1).
    EXPECT_DOUBLE_EQ(s.system().bus().busyCycles.value() - busy, 2.0);
}
