/**
 * @file
 * Figure 2: Fetching Without Source Cache (read request).  "If there is
 * no source cache for the block, even if the block is present in another
 * cache, the block is provided by memory...  if the request is for read
 * privilege, any cache that has the block signals hit; otherwise the
 * requester will assume write privilege."
 */

#include "fig_common.hh"

using namespace csync;
using namespace csync::fig;

int
main()
{
    banner("Figure 2: Fetching Without Source Cache (read request)",
           "hit line raised, no source -> memory provides, read "
           "privilege");

    Scenario s(figConfig(), true);
    const Addr X = 0x1000;

    s.note("-- cache 1 holds a read copy whose source was lost "
           "(installed directly) --");
    s.cache(1).installFrameForTest(X, Rd);

    double mem = s.system().bus().memSupplies.value();
    s.note("-- processor 0 reads X --");
    s.run(0, rd(X));
    printLog(s);

    verdict(s.system().bus().memSupplies.value() == mem + 1,
            "memory provided the block (no source cache)");
    verdict(canRead(s.state(0, X)) && !canWrite(s.state(0, X)),
            "requester assumed read privilege (hit line was raised)");
    verdict(isSource(s.state(0, X)),
            "the last fetcher became the new source (Feature 8 LRU)");
    verdict(s.state(1, X) == Rd, "the other copy is undisturbed");

    return finish();
}
