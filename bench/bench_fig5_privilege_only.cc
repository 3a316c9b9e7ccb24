/**
 * @file
 * Figure 5: Request Only For Write Privilege.  "If the requester cache
 * already has a valid copy at a processor write, it only requests write
 * privilege, not the block itself" — a one-cycle invalidation with no
 * data transfer.
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 5: Request Only For Write Privilege",
           "write hit on a read copy -> one-cycle invalidation, no data");

    Scenario s(figConfig(), true);
    const Addr X = 0x1000;

    s.note("-- both caches obtain read copies --");
    s.run(0, wr(X, 1));
    s.run(1, rd(X));
    s.clearLog();

    double data_cycles = s.system().bus().dataTransferCycles.value();
    double upgrades = s.system().bus().typeCount(BusReq::Upgrade);
    double busy = s.system().bus().busyCycles.value();
    s.note("-- processor 0 writes X while holding a read copy --");
    s.run(0, wr(X, 2));
    printLog(s);

    verdict(s.system().bus().typeCount(BusReq::Upgrade) == upgrades + 1,
            "a privilege-only (Upgrade) request was used");
    verdict(s.system().bus().dataTransferCycles.value() == data_cycles,
            "no data moved on the bus");
    verdict(s.system().bus().busyCycles.value() - busy <= 3,
            "the invalidation took only the short signal tenure");
    verdict(s.state(0, X) == WrSrcDty && s.state(1, X) == Inv,
            "writer gained sole access; the other copy was invalidated");

    return finish();
}
