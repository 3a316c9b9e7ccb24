/**
 * @file
 * Figure 4: Cache-to-Cache Transfer.  "If there is a source cache for a
 * block, the source provides the contents of the block, if requested,
 * along with the clean/dirty status of the block."  Under the proposal's
 * Feature 7 'NF,S' the block is not flushed and the dirty status travels
 * with it; the last fetcher becomes the new source.
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 4: Cache-to-Cache Transfer",
           "source provides block + clean/dirty status; no flush; "
           "source status moves to the fetcher");

    Scenario s(figConfig(), true);
    const Addr X = 0x1000;

    s.note("-- processor 0 creates a dirty block --");
    s.run(0, wr(X, 42));
    s.clearLog();

    double c2c = s.system().bus().cacheSupplies.value();
    double flushes = s.system().memory().blockWrites.value();
    s.note("-- processor 1 reads X --");
    AccessResult r = s.run(1, rd(X));
    printLog(s);

    verdict(r.value == 42,
            "the fetcher received the latest version from the source");
    verdict(s.system().bus().cacheSupplies.value() == c2c + 1,
            "cache-to-cache transfer occurred");
    verdict(s.system().memory().blockWrites.value() == flushes,
            "the block was NOT flushed (Feature 7 'NF')");
    verdict(s.state(1, X) == RdSrcDty,
            "dirty status travelled with the block ('NF,S'): fetcher is "
            "Read,Source,Dirty");
    verdict(s.state(0, X) == Rd,
            "the old source dropped to Read (source moved)");

    return finish();
}
