/**
 * @file
 * Tests for the directed scenario engine used by the figure benches.
 */

#include <gtest/gtest.h>

#include "system/replay.hh"
#include "test_helpers.hh"

using namespace csync;
using namespace csync::test;

TEST(Scenario, RunCompletesAndReturnsValue)
{
    Scenario s(opts("bitar"));
    s.run(0, wr(0x1000, 5));
    auto r = s.run(1, rd(0x1000));
    EXPECT_EQ(r.value, 5u);
}

TEST(Scenario, TryRunReportsPendingLockOps)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(0x1000));
    AccessResult r;
    EXPECT_FALSE(s.tryRun(1, lockRd(0x1000), &r));
    EXPECT_FALSE(s.pendingCompleted(1));
    s.run(0, unlockWr(0x1000, 3));
    EXPECT_TRUE(s.pendingCompleted(1, &r));
    EXPECT_EQ(r.value, 3u);
}

TEST(Scenario, CollectsTraceNarration)
{
    {
        Scenario s(opts("bitar", 2), true);
        s.run(0, wr(0x1000, 1));
        EXPECT_FALSE(s.log().empty());
        bool has_grant = false;
        for (const auto &line : s.log())
            has_grant |= line.find("grant") != std::string::npos;
        EXPECT_TRUE(has_grant);
        s.clearLog();
        EXPECT_TRUE(s.log().empty());
        s.note("hello");
        ASSERT_EQ(s.log().size(), 1u);
        EXPECT_NE(s.log()[0].find("hello"), std::string::npos);
    }
    // Destructor must reset tracing.
    EXPECT_FALSE(Trace::enabled(TraceFlag::Bus));
}

TEST(Scenario, SilentUnlessNarrating)
{
    Scenario s(opts("bitar", 2));
    s.note("hello");
    s.run(0, wr(0x1000, 1));
    EXPECT_TRUE(s.log().empty());
}

TEST(Scenario, LockLivelockStallsInsteadOfSpinning)
{
    // Without the busy-wait register the loser retries its lock request
    // on the bus for as long as the holder keeps the lock (Q5), so the
    // event queue never drains: the bounded settle must give up and
    // report the stall rather than spin forever.
    SystemConfig c = opts("bitar", 2);
    c.cache.useBusyWaitRegister = false;
    Scenario s(c);
    s.run(0, lockRd(0x1000));
    EXPECT_FALSE(s.stalled());
    EXPECT_FALSE(s.tryRun(1, lockRd(0x1000)));
    EXPECT_TRUE(s.stalled());
    EXPECT_TRUE(s.busy(1));
    EXPECT_GT(s.cache(1).lockRetries.value(), 0.0);
}

TEST(Scenario, StateInspection)
{
    Scenario s(opts("illinois"));
    EXPECT_EQ(s.state(0, 0x1000), Inv);
    s.run(0, rd(0x1000));
    EXPECT_EQ(s.state(0, 0x1000), WrSrcCln);
}

// Paper-figure scenarios, driven through the model checker's replay
// path (TraceReplayer) so the exact interleavings stay serializable and
// re-checkable by `csync-mc replay`.

namespace
{

csync::DirectedTrace
bitarShape(unsigned procs)
{
    csync::DirectedTrace t;
    t.protocol = "bitar";
    t.processors = procs;
    return t;
}

} // anonymous namespace

TEST(ScenarioFigures, Fig4CacheToCacheTransferMigratesSource)
{
    using csync::DirectedKind;
    csync::TraceReplayer r(bitarShape(2));

    EXPECT_TRUE(r.step({0, DirectedKind::Write, 0x1000, 42}).completed);
    auto rd = r.step({1, DirectedKind::Read, 0x1000, 0});
    EXPECT_TRUE(rd.completed);
    EXPECT_EQ(rd.value, 42u);

    // Figure 4: the dirty block travels cache-to-cache without a flush;
    // source status (and dirty) move to the fetcher, the old owner
    // drops to a plain read copy.
    EXPECT_EQ(r.system().cache(1).stateOf(0x1000), RdSrcDty);
    EXPECT_EQ(r.system().cache(0).stateOf(0x1000), Rd);
    EXPECT_TRUE(r.verdict().clean());
}

TEST(ScenarioFigures, Fig7LockDenialRecordsWaiterAndArmsRegister)
{
    using csync::DirectedKind;
    csync::TraceReplayer r(bitarShape(2));

    EXPECT_TRUE(r.step({0, DirectedKind::LockRead, 0x1000, 0}).completed);
    auto contender = r.step({1, DirectedKind::LockRead, 0x1000, 0});
    EXPECT_TRUE(contender.issued);
    EXPECT_TRUE(contender.pending);

    // Figure 7: the holder's copy gains the waiter bit and the loser
    // parks in its busy-wait register instead of retrying on the bus.
    EXPECT_EQ(r.system().cache(0).stateOf(0x1000), LkSrcDtyWt);
    EXPECT_TRUE(r.system().cache(1).busyWaitArmed());
    EXPECT_TRUE(r.busy(1));

    // Release: the parked lock completes with the unlocking write's
    // value, and the verdict (incl. waiter liveness) is clean.
    EXPECT_TRUE(r.step({0, DirectedKind::UnlockWrite, 0x1000, 5}).completed);
    csync::Word got = 0;
    EXPECT_TRUE(r.pendingCompleted(1, &got));
    EXPECT_EQ(got, 5u);
    EXPECT_TRUE(r.verdict().clean());
}

TEST(ScenarioFigures, Fig9UnlockBroadcastServesWaitersWithoutRetries)
{
    using csync::DirectedKind;
    csync::TraceReplayer r(bitarShape(3));

    EXPECT_TRUE(r.step({0, DirectedKind::LockRead, 0x1000, 0}).completed);
    EXPECT_TRUE(r.step({1, DirectedKind::LockRead, 0x1000, 0}).pending);
    EXPECT_TRUE(r.step({2, DirectedKind::LockRead, 0x1000, 0}).pending);

    // First unlock: exactly one waiter wins the busy-wait arbitration
    // and sees the released value.
    EXPECT_TRUE(r.step({0, DirectedKind::UnlockWrite, 0x1000, 7}).completed);
    csync::Word got = 0;
    unsigned winner = r.pendingCompleted(1, &got) ? 1u : 2u;
    ASSERT_TRUE(r.pendingCompleted(winner, &got));
    EXPECT_EQ(got, 7u);
    unsigned loser = winner == 1 ? 2u : 1u;
    EXPECT_TRUE(r.busy(loser));

    // Second unlock: the remaining waiter is served in turn (Figure 9's
    // queue of waiting processors drains one per release).
    EXPECT_TRUE(
        r.step({winner, DirectedKind::UnlockWrite, 0x1000, 8}).completed);
    EXPECT_TRUE(r.pendingCompleted(loser, &got));
    EXPECT_EQ(got, 8u);

    // Feature 10's whole point: waiters sat in their registers, so no
    // lock request was ever retried over the bus.
    double retries = 0;
    for (unsigned i = 0; i < 3; ++i)
        retries += r.system().cache(i).lockRetries.value();
    EXPECT_EQ(retries, 0.0);
    EXPECT_TRUE(r.verdict().clean());
}
