/**
 * @file
 * Figure 7: Requesting Locked Block; Initiating Busy Wait.  "If another
 * cache requests the atom while it is locked... it will find it locked.
 * The cache holding the lock will record that another cache is waiting,
 * using the lock-waiter state.  The requester cache, then, enters the
 * block address in a special busy-wait register" — and makes no further
 * bus requests.
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 7: Requesting Locked Block; Initiating Busy Wait",
           "request denied; locker records waiter; requester arms its "
           "busy-wait register");

    Scenario s(figConfig(), true);
    const Addr X = 0x1000;

    s.note("-- processor 0 locks X --");
    s.run(0, lockRd(X));
    s.clearLog();

    s.note("-- processor 1 requests the locked atom --");
    bool completed = s.tryRun(1, lockRd(X));
    printLog(s);

    verdict(!completed, "the request did not complete (block locked)");
    verdict(s.state(0, X) == LkSrcDtyWt,
            "the locker recorded the waiter (Lock,Source,Dirty,Waiter)");
    verdict(s.cache(1).busyWaitArmed() && s.cache(1).busyWaitAddr() == X,
            "the requester armed its busy-wait register with the block "
            "address");
    verdict(s.state(1, X) == Inv, "the requester holds no copy");

    double tx = s.system().bus().transactions.value();
    s.clearLog();
    s.note("-- time passes; the waiter stays off the bus --");
    s.settle();
    verdict(s.system().bus().transactions.value() == tx,
            "no retries reached the bus while waiting (Q5)");
    verdict(s.cache(1).lockRetries.value() == 0,
            "zero unsuccessful retries recorded");

    return finish();
}
