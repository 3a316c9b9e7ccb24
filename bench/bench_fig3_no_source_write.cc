/**
 * @file
 * Figure 3: Fetching Without Source Cache (write request).  Memory
 * provides the block; the requester assumes write privilege and the
 * other copies are invalidated concurrently (Feature 4).
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 3: Fetching Without Source Cache (write request)",
           "no source -> memory provides; write privilege; others "
           "invalidated while fetching");

    Scenario s(figConfig(), true);
    const Addr X = 0x1000;

    s.note("-- caches 1 and 2 hold read copies, no source --");
    s.cache(1).installFrameForTest(X, Rd);
    s.cache(2).installFrameForTest(X, Rd);

    double mem = s.system().bus().memSupplies.value();
    double tx = s.system().bus().transactions.value();
    s.note("-- processor 0 writes X --");
    s.run(0, wr(X, 7));
    printLog(s);

    verdict(s.system().bus().memSupplies.value() == mem + 1,
            "memory provided the block");
    verdict(s.system().bus().transactions.value() == tx + 1,
            "one transaction: invalidation concurrent with the fetch "
            "(Feature 4)");
    verdict(s.state(0, X) == WrSrcDty,
            "requester holds Write,Source,Dirty");
    verdict(s.state(1, X) == Inv && s.state(2, X) == Inv,
            "both other copies were invalidated");

    return finish();
}
