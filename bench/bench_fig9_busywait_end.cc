/**
 * @file
 * Figure 9: End Busy Wait.  "A busy-wait register waiting on that lock
 * recognizes the unlocking and joins the next bus arbitration [with the
 * dedicated high-priority bit].  The winning cache will fetch the block
 * for write privilege, lock the block using the lock-waiter state...,
 * and interrupt its processor; while the other caches will let their
 * processors continue... and will not access the bus, making no attempt
 * to fetch the block again."
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 9: End Busy Wait",
           "priority arbitration; winner locks in lock-waiter state and "
           "interrupts; losers stay quiet");

    Scenario s(figConfig(3), true);
    const Addr X = 0x1000;

    s.note("-- processor 0 locks X; processors 1 and 2 queue up --");
    s.run(0, lockRd(X));
    s.tryRun(1, lockRd(X));
    s.tryRun(2, lockRd(X));
    s.clearLog();

    double hp = s.system().bus().highPriorityGrants.value();
    s.note("-- processor 0 unlocks --");
    s.run(0, unlockWr(X, 7));
    printLog(s);

    AccessResult r1, r2;
    bool done1 = s.pendingCompleted(1, &r1);
    bool done2 = s.pendingCompleted(2, &r2);
    verdict(done1 != done2, "exactly one waiter won the arbitration");
    unsigned winner = done1 ? 1 : 2;
    unsigned loser = done1 ? 2 : 1;

    verdict(s.system().bus().highPriorityGrants.value() > hp,
            "the winner used the dedicated high-priority bit");
    verdict(s.state(winner, X) == LkSrcDtyWt,
            "the winner locked using the lock-waiter state");
    verdict((done1 ? r1 : r2).value == 7,
            "the winner's processor was interrupted with the lock held");
    verdict(s.cache(loser).busyWaitArmed(),
            "the loser made no attempt to fetch the block again");
    verdict(s.cache(1).lockRetries.value() +
                    s.cache(2).lockRetries.value() ==
                0,
            "zero unsuccessful retries on the bus (Q5)");

    s.clearLog();
    s.note("-- the winner unlocks; the last waiter is handed the "
           "lock --");
    s.run(winner, unlockWr(X, 8));
    printLog(s);
    AccessResult rl;
    verdict(s.pendingCompleted(loser, &rl) && rl.value == 8,
            "the remaining waiter acquired the lock in turn");
    verdict(s.system().checker().violationCount.value() == 0,
            "no coherence or lock violations anywhere");

    return finish();
}
