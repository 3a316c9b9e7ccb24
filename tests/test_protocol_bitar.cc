/**
 * @file
 * Tests for the paper's proposed protocol: each of Figures 1-9 as an
 * executable assertion, plus the lock mechanics (zero-time lock/unlock,
 * lock-waiter, busy-wait register, priority handoff, locked-block purge
 * fallback, RMW-via-lock-state, write-without-fetch).
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

using namespace csync;
using namespace csync::test;

namespace
{
constexpr Addr X = 0x1000;    // a block address
constexpr Addr Y = 0x2000;    // another block
} // namespace

TEST(BitarFig1, ReadMissAloneFetchesWritePrivilege)
{
    Scenario s(opts("bitar"));
    s.run(0, rd(X));
    // No other cache signalled hit: write privilege, clean, source.
    EXPECT_EQ(s.state(0, X), WrSrcCln);
    // Subsequent write needs no bus access.
    double tx = s.system().bus().transactions.value();
    s.run(0, wr(X, 1));
    EXPECT_DOUBLE_EQ(s.system().bus().transactions.value(), tx);
    EXPECT_EQ(s.state(0, X), WrSrcDty);
}

TEST(BitarFig2, NoSourceReadSuppliedByMemoryKeepsReadPrivilege)
{
    Scenario s(opts("bitar"));
    // Put a read copy in cache 1 but remove source status (as if the
    // source purged the block): install directly.
    s.cache(1).installFrameForTest(X, Rd);
    double mem = s.system().bus().memSupplies.value();
    s.run(0, rd(X));
    // Hit line was raised, no source -> memory supplies; requester gets
    // read privilege and becomes the new source (LRU source).
    EXPECT_DOUBLE_EQ(s.system().bus().memSupplies.value(), mem + 1);
    EXPECT_EQ(s.state(0, X), RdSrcCln);
    EXPECT_EQ(s.state(1, X), Rd);
}

TEST(BitarFig3, NoSourceWriteSuppliedByMemoryInvalidatesOthers)
{
    Scenario s(opts("bitar"));
    s.cache(1).installFrameForTest(X, Rd);
    double mem = s.system().bus().memSupplies.value();
    s.run(0, wr(X, 7));
    EXPECT_DOUBLE_EQ(s.system().bus().memSupplies.value(), mem + 1);
    EXPECT_EQ(s.state(0, X), WrSrcDty);
    EXPECT_EQ(s.state(1, X), Inv);
}

TEST(BitarFig4, CacheToCacheTransferCarriesDirtyStatus)
{
    Scenario s(opts("bitar"));
    s.run(0, wr(X, 42));    // cache0: Write,Source,Dirty
    ASSERT_EQ(s.state(0, X), WrSrcDty);
    double c2c = s.system().bus().cacheSupplies.value();
    double flushes = s.system().memory().blockWrites.value();
    auto r = s.run(1, rd(X));
    EXPECT_EQ(r.value, 42u);
    // Source provided the block; dirty status travelled with it
    // (NF,S: no flush); the fetcher became the new source.
    EXPECT_DOUBLE_EQ(s.system().bus().cacheSupplies.value(), c2c + 1);
    EXPECT_DOUBLE_EQ(s.system().memory().blockWrites.value(), flushes);
    EXPECT_EQ(s.state(1, X), RdSrcDty);
    EXPECT_EQ(s.state(0, X), Rd);
}

TEST(BitarFig5, WriteHitWithReadPrivilegeRequestsPrivilegeOnly)
{
    Scenario s(opts("bitar"));
    s.run(0, wr(X, 1));
    s.run(1, rd(X));            // both now have read copies
    ASSERT_EQ(s.state(0, X), Rd);
    double data_cycles = s.system().bus().dataTransferCycles.value();
    double upgrades = s.system().bus().typeCount(BusReq::Upgrade);
    s.run(0, wr(X, 2));
    // One-cycle invalidation, no data moved (Figure 5).
    EXPECT_DOUBLE_EQ(s.system().bus().typeCount(BusReq::Upgrade),
                     upgrades + 1);
    EXPECT_DOUBLE_EQ(s.system().bus().dataTransferCycles.value(),
                     data_cycles);
    EXPECT_EQ(s.state(0, X), WrSrcDty);
    EXPECT_EQ(s.state(1, X), Inv);
}

TEST(BitarFig6, LockRidesTheFetch)
{
    Scenario s(opts("bitar"));
    double tx_before = s.system().bus().transactions.value();
    auto r = s.run(0, lockRd(X));
    EXPECT_EQ(r.value, 0u);
    EXPECT_EQ(s.state(0, X), LkSrcDty);
    // Locking was concurrent with fetching: exactly one transaction.
    EXPECT_DOUBLE_EQ(s.system().bus().transactions.value(),
                     tx_before + 1);
}

TEST(BitarFig6b, LockOnOwnedBlockIsZeroTime)
{
    Scenario s(opts("bitar"));
    s.run(0, wr(X, 5));    // Write,Source,Dirty
    double tx = s.system().bus().transactions.value();
    auto r = s.run(0, lockRd(X));
    EXPECT_EQ(r.value, 5u);
    EXPECT_EQ(s.state(0, X), LkSrcDty);
    EXPECT_DOUBLE_EQ(s.system().bus().transactions.value(), tx);
    EXPECT_DOUBLE_EQ(s.cache(0).zeroTimeLocks.value(), 1.0);
}

TEST(BitarFig7, RequestToLockedBlockBeginsBusyWait)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    ASSERT_EQ(s.state(0, X), LkSrcDty);
    // Cache 1 requests the locked atom: the request is denied, the
    // locker records the waiter, the requester arms its register.
    AccessResult r;
    EXPECT_FALSE(s.tryRun(1, lockRd(X), &r));
    EXPECT_EQ(s.state(0, X), LkSrcDtyWt);
    EXPECT_TRUE(s.cache(1).busyWaitArmed());
    EXPECT_EQ(s.cache(1).busyWaitAddr(), X);
    // And it makes no further bus requests while waiting.
    double tx = s.system().bus().transactions.value();
    s.settle();
    EXPECT_DOUBLE_EQ(s.system().bus().transactions.value(), tx);
}

TEST(BitarFig8, UnlockSilentWithoutWaiterBroadcastWithWaiter)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    double tx = s.system().bus().transactions.value();
    s.run(0, unlockWr(X, 1));
    // No waiter: zero-time unlock, no bus traffic.
    EXPECT_DOUBLE_EQ(s.system().bus().transactions.value(), tx);
    EXPECT_EQ(s.state(0, X), WrSrcDty);
    EXPECT_DOUBLE_EQ(s.cache(0).zeroTimeUnlocks.value(), 1.0);

    // Now with a waiter.
    s.run(0, lockRd(X));
    EXPECT_FALSE(s.tryRun(1, lockRd(X)));
    double bc = s.system().bus().typeCount(BusReq::UnlockBroadcast);
    s.run(0, unlockWr(X, 2));
    EXPECT_DOUBLE_EQ(s.system().bus().typeCount(BusReq::UnlockBroadcast),
                     bc + 1);
}

TEST(BitarFig9, WinnerLocksWithWaiterStateAndInterrupts)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    EXPECT_FALSE(s.tryRun(1, lockRd(X)));
    EXPECT_FALSE(s.tryRun(2, lockRd(X)));
    // Both waiters armed; locker carries the waiter state.
    EXPECT_EQ(s.state(0, X), LkSrcDtyWt);

    s.run(0, unlockWr(X, 9));
    // One waiter won, locked the block in lock-waiter state (since
    // another waiter probably remains), and its op completed.
    AccessResult r1, r2;
    bool done1 = s.pendingCompleted(1, &r1);
    bool done2 = s.pendingCompleted(2, &r2);
    EXPECT_TRUE(done1 != done2);    // exactly one winner
    unsigned winner = done1 ? 1 : 2;
    unsigned loser = done1 ? 2 : 1;
    EXPECT_EQ(s.state(winner, X), LkSrcDtyWt);
    EXPECT_EQ((done1 ? r1 : r2).value, 9u);
    // The loser stays quiet in its register.
    EXPECT_TRUE(s.cache(loser).busyWaitArmed());
    // High-priority arbitration was used.
    EXPECT_GE(s.system().bus().highPriorityGrants.value(), 1.0);
    // Zero unsuccessful retries anywhere (the paper's claim Q5).
    EXPECT_DOUBLE_EQ(s.cache(1).lockRetries.value(), 0.0);
    EXPECT_DOUBLE_EQ(s.cache(2).lockRetries.value(), 0.0);

    // Second unlock hands the lock to the remaining waiter.
    s.run(winner, unlockWr(X, 11));
    AccessResult rl;
    EXPECT_TRUE(s.pendingCompleted(loser, &rl));
    EXPECT_EQ(rl.value, 11u);
    EXPECT_FALSE(s.cache(loser).busyWaitArmed());
}

TEST(BitarLock, ChainedHandoffPreservesMutualExclusion)
{
    Scenario s(opts("bitar", 4));
    s.run(0, lockRd(X));
    EXPECT_FALSE(s.tryRun(1, lockRd(X)));
    EXPECT_FALSE(s.tryRun(2, lockRd(X)));
    EXPECT_FALSE(s.tryRun(3, lockRd(X)));
    s.run(0, unlockWr(X, 1));
    // Hand the lock down the chain; each holder unlocks in turn.
    for (int hop = 0; hop < 3; ++hop) {
        unsigned holder = 99;
        for (unsigned p = 1; p <= 3; ++p) {
            if (s.pendingCompleted(p) &&
                isLocked(s.state(p, X))) {
                holder = p;
                break;
            }
        }
        ASSERT_NE(holder, 99u);
        s.run(holder, unlockWr(X, Word(hop + 2)));
    }
    EXPECT_DOUBLE_EQ(s.system().checker().violationCount.value(), 0.0);
    // All three waiters eventually acquired.
    EXPECT_TRUE(s.pendingCompleted(1));
    EXPECT_TRUE(s.pendingCompleted(2));
    EXPECT_TRUE(s.pendingCompleted(3));
}

TEST(BitarLock, PlainReadDeniedByLockCompletesWithoutLocking)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    AccessResult r;
    EXPECT_FALSE(s.tryRun(1, rd(X + 8), &r));    // same block, plain read
    EXPECT_EQ(s.state(0, X), LkSrcDtyWt);
    s.run(0, wr(X + 8, 77));                      // write inside CS
    s.run(0, unlockWr(X, 1));
    ASSERT_TRUE(s.pendingCompleted(1, &r));
    EXPECT_EQ(r.value, 77u);
    // A plain read must not re-lock the block.
    EXPECT_FALSE(isLocked(s.state(1, X)));
}

TEST(BitarRmw, CollapsesToZeroTimeOnOwnedBlock)
{
    Scenario s(opts("bitar"));
    s.run(0, wr(X, 3));
    double tx = s.system().bus().transactions.value();
    auto r = s.run(0, rmw(X, 1));
    EXPECT_EQ(r.value, 3u);
    EXPECT_EQ(s.cache(0).peekWord(X), 1u);
    EXPECT_EQ(s.state(0, X), WrSrcDty);
    EXPECT_DOUBLE_EQ(s.system().bus().transactions.value(), tx);
}

TEST(BitarRmw, ContendedRmwHandsOffThroughBusyWait)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    AccessResult r;
    EXPECT_FALSE(s.tryRun(1, rmw(X, 5), &r));
    EXPECT_TRUE(s.cache(1).busyWaitArmed());
    s.run(0, unlockWr(X, 2));
    ASSERT_TRUE(s.pendingCompleted(1, &r));
    EXPECT_EQ(r.value, 2u);                  // read the unlocked value
    EXPECT_EQ(s.cache(1).peekWord(X), 5u);   // swap applied
    // The RMW released the lock (with a broadcast, since the waiter
    // state was preset).
    EXPECT_FALSE(isLocked(s.state(1, X)));
    EXPECT_GE(s.system().bus().typeCount(BusReq::UnlockBroadcast), 2.0);
}

TEST(BitarRmw, RmwInsideOwnCriticalSectionKeepsLock)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    s.run(0, rmw(X + 8, 4));
    EXPECT_TRUE(isLocked(s.state(0, X)));
    s.run(0, unlockWr(X, 0));
    EXPECT_FALSE(isLocked(s.state(0, X)));
}

TEST(BitarWnf, WriteNoFetchClaimsWithoutData)
{
    Scenario s(opts("bitar"));
    s.run(0, wr(X, 1));
    s.run(0, wr(X + 8, 2));    // dirty block in cache 0
    double supplies = s.system().bus().cacheSupplies.value() +
                      s.system().bus().memSupplies.value();
    s.run(1, wnf(X, 9));
    EXPECT_DOUBLE_EQ(s.system().bus().cacheSupplies.value() +
                         s.system().bus().memSupplies.value(),
                     supplies);
    EXPECT_EQ(s.state(1, X), WrSrcDty);
    EXPECT_EQ(s.state(0, X), Inv);
    EXPECT_EQ(s.cache(1).peekWord(X), 9u);
    EXPECT_EQ(s.cache(1).peekWord(X + 8), 0u);    // claimed fresh
}

TEST(BitarPurge, LockedBlockPurgeMovesLockToMemory)
{
    // Tiny cache: 2 frames, fully associative.  Victim selection avoids
    // locked frames while it can, so fill BOTH frames with locked
    // blocks; the next fetch must purge the LRU locked block (X).
    Scenario s(opts("bitar", 2, 4, 2));
    s.run(0, lockRd(X));
    ASSERT_EQ(s.state(0, X), LkSrcDty);
    s.run(0, lockRd(X + 0x100));
    s.run(0, rd(Y));
    EXPECT_EQ(s.state(0, X), Inv);
    EXPECT_TRUE(s.system().memory().memLocked(X));
    EXPECT_EQ(s.system().memory().memLockHolder(X), 0);
    EXPECT_TRUE(s.cache(0).holdsPurgedLock(X));
    EXPECT_DOUBLE_EQ(s.cache(0).lockedPurges.value(), 1.0);

    // Another cache's fetch is refused and records a waiter in memory.
    AccessResult r;
    EXPECT_FALSE(s.tryRun(1, lockRd(X), &r));
    EXPECT_TRUE(s.system().memory().memWaiter(X));

    // The holder unlocks: it re-fetches as holder, the waiter bit moves
    // back into the cache state, and the unlock broadcasts.
    s.run(0, unlockWr(X, 33));
    EXPECT_FALSE(s.system().memory().memLocked(X));
    ASSERT_TRUE(s.pendingCompleted(1, &r));
    EXPECT_EQ(r.value, 33u);
    EXPECT_TRUE(isLocked(s.state(1, X)));
    EXPECT_DOUBLE_EQ(s.system().checker().violationCount.value(), 0.0);
}

TEST(BitarSource, LastFetcherBecomesSource)
{
    Scenario s(opts("bitar", 4));
    s.run(0, wr(X, 1));
    s.run(1, rd(X));
    EXPECT_TRUE(isSource(s.state(1, X)));
    EXPECT_FALSE(isSource(s.state(0, X)));
    s.run(2, rd(X));
    EXPECT_TRUE(isSource(s.state(2, X)));
    EXPECT_FALSE(isSource(s.state(1, X)));
    // cache2 supplied by cache1 (the then-source).
    EXPECT_DOUBLE_EQ(s.cache(1).blocksSupplied.value(), 1.0);
}

TEST(BitarSource, SourcePurgeFallsBackToMemory)
{
    // frames=2 so reading two more blocks purges X from cache 1.
    Scenario s(opts("bitar", 3, 4, 2));
    s.run(0, wr(X, 5));
    s.run(1, rd(X));            // cache1 becomes source (dirty travels)
    ASSERT_EQ(s.state(1, X), RdSrcDty);
    double flushes = s.system().memory().blockWrites.value();
    s.run(1, rd(Y));
    s.run(1, rd(Y + 0x1000));   // X evicted from cache1, flushed (dirty)
    EXPECT_GT(s.system().memory().blockWrites.value(), flushes);
    double mem = s.system().bus().memSupplies.value();
    auto r = s.run(2, rd(X));
    EXPECT_EQ(r.value, 5u);
    // cache0 still has a Read copy but is not the source: memory
    // supplies (Figure 2 / Feature 8 MEM fallback).
    EXPECT_DOUBLE_EQ(s.system().bus().memSupplies.value(), mem + 1);
}

TEST(BitarChecker, LockPairsTracked)
{
    Scenario s(opts("bitar"));
    s.run(0, lockRd(X));
    s.run(0, unlockWr(X, 1));
    EXPECT_DOUBLE_EQ(s.system().checker().lockPairs.value(), 1.0);
    EXPECT_DOUBLE_EQ(s.system().checker().violationCount.value(), 0.0);
}

TEST(BitarAblation, NormalPriorityStillCorrectJustSlower)
{
    // Section E.4 ablation: without the dedicated priority bit the
    // hand-off still works (losers re-arm correctly); only latency
    // under competing traffic suffers (measured in bench_sece4).
    SystemConfig cfg = opts("bitar");
    cfg.cache.busyWaitPriority = false;
    Scenario s(cfg);
    ASSERT_TRUE(s.tryRun(0, lockRd(0x1000)));
    EXPECT_FALSE(s.tryRun(1, lockRd(0x1000)));
    EXPECT_TRUE(s.tryRun(0, unlockWr(0x1000, 5)));
    AccessResult r1;
    EXPECT_TRUE(s.pendingCompleted(1, &r1));
    EXPECT_EQ(r1.value, 5u);
    EXPECT_DOUBLE_EQ(s.system().bus().highPriorityGrants.value(), 0.0);
    EXPECT_EQ(s.system().checker().violations(), 0u);
}
