/**
 * @file
 * Figure 8: Unlocking a Block.  "The unlock can occur at the final write
 * to the block"; it is silent when no cache is waiting, and is broadcast
 * on the bus when the state is lock-waiter.
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 8: Unlocking a Block",
           "unlock at the final write; silent without waiter, broadcast "
           "with waiter");

    const Addr X = 0x1000;
    {
        Scenario s(figConfig(), true);
        s.note("-- no waiter: lock then unlock --");
        s.run(0, lockRd(X));
        s.clearLog();
        double tx = s.system().bus().transactions.value();
        s.run(0, unlockWr(X, 1));
        printLog(s);
        verdict(s.system().bus().transactions.value() == tx,
                "unlock generated no bus traffic (zero time)");
        verdict(s.state(0, X) == WrSrcDty,
                "block reverted to Write,Source,Dirty");
        verdict(s.cache(0).zeroTimeUnlocks.value() == 1,
                "counted as a zero-time unlock");
    }
    {
        Scenario s(figConfig(), true);
        s.note("-- with waiter: the unlock is broadcast --");
        s.run(0, lockRd(X));
        s.tryRun(1, lockRd(X));
        s.clearLog();
        double bc = s.system().bus().typeCount(BusReq::UnlockBroadcast);
        s.run(0, unlockWr(X, 9));
        printLog(s);
        verdict(s.system().bus().typeCount(BusReq::UnlockBroadcast) ==
                    bc + 1,
                "the unlocking was broadcast on the bus (lock-waiter "
                "state)");
        AccessResult r;
        verdict(s.pendingCompleted(1, &r) && r.value == 9,
                "the waiter acquired the lock and read the final value");
    }
    return finish();
}
