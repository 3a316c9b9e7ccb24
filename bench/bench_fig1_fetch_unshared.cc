/**
 * @file
 * Figure 1: Fetching Unshared Data on Read Miss.  "If the request is for
 * read privilege and the block is not present in another cache — no
 * cache signals hit — the requester assumes write privilege, so that if
 * its processor subsequently writes the block, a bus access will not be
 * required in order to obtain write privilege."
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 1: Fetching Unshared Data on Read Miss",
           "read miss, no hit line -> assume write privilege");

    Scenario s(figConfig(), true);
    const Addr X = 0x1000;

    s.note("-- processor 0 reads X; no other cache has the block --");
    s.run(0, rd(X));
    printLog(s);

    verdict(s.state(0, X) == WrSrcCln,
            "requester assumed Write,Source,Clean (not Read)");
    verdict(s.system().bus().memSupplies.value() == 1,
            "memory supplied the block");

    double tx = s.system().bus().transactions.value();
    s.clearLog();
    s.note("-- processor 0 now writes X --");
    s.run(0, wr(X, 1));
    printLog(s);
    verdict(s.system().bus().transactions.value() == tx,
            "the subsequent write needed no bus access");
    verdict(s.state(0, X) == WrSrcDty, "block is now Write,Source,Dirty");

    return finish();
}
