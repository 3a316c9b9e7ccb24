/**
 * @file
 * Figure 6: Locking a Block.  "The first block of the atom is fetched
 * for write privilege and locked...; the cache supplies the target word
 * to its processor, as on a read instruction.  Locking a block, here, is
 * concurrent with fetching the block, so generates no extra bus traffic,
 * nor delays the processor...  locking and unlocking will usually occur
 * in zero time."
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 6: Locking a Block",
           "lock rides the fetch; zero extra traffic; zero time when "
           "the block is already owned");

    const Addr X = 0x1000;
    {
        Scenario s(figConfig(), true);
        s.note("-- cold lock: processor 0 lock-reads X (miss) --");
        double tx = s.system().bus().transactions.value();
        AccessResult r = s.run(0, lockRd(X));
        printLog(s);
        verdict(s.state(0, X) == LkSrcDty,
                "block is Lock,Source,Dirty in the locker");
        verdict(r.value == 0, "the target word was supplied to the "
                              "processor like a read");
        verdict(s.system().bus().transactions.value() == tx + 1,
                "exactly one bus transaction: the lock rode the fetch");
    }
    {
        Scenario s(figConfig(), true);
        s.note("-- warm lock: the block is already owned --");
        s.run(0, wr(X, 5));
        s.clearLog();
        double tx = s.system().bus().transactions.value();
        Tick t0 = s.system().now();
        AccessResult r = s.run(0, lockRd(X));
        printLog(s);
        verdict(r.value == 5, "the word came from the cache");
        verdict(s.system().bus().transactions.value() == tx,
                "zero bus traffic (cache-state locking)");
        verdict(s.system().now() - t0 <= 2,
                "locking occurred in zero (hit) time");
        verdict(s.cache(0).zeroTimeLocks.value() == 1,
                "counted as a zero-time lock");
    }
    return finish();
}
