/**
 * @file
 * Shared plumbing for the Figure 1-9 reproduction benches: build a
 * traced scenario on the paper's proposed protocol, print the
 * simulator's own narration, and verify the figure's outcome, exiting
 * nonzero on mismatch.
 */

#ifndef CSYNC_BENCH_FIG_COMMON_HH
#define CSYNC_BENCH_FIG_COMMON_HH

#include <cstdio>
#include <string>

#include "system/scenario.hh"

namespace csync
{
namespace fig
{

inline SystemConfig
figConfig(unsigned processors = 3)
{
    SystemConfig c;
    c.protocol = "bitar";
    c.numProcessors = processors;
    c.cache.geom.blockWords = 4;
    c.cache.geom.frames = 16;
    return c;
}

inline void
banner(const char *title, const char *paper_text)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title);
    std::printf("Paper: %s\n", paper_text);
    std::printf("==============================================================\n\n");
}

inline void
printLog(Scenario &s)
{
    std::printf("--- simulator narration "
                "-------------------------------------\n");
    for (const auto &line : s.log())
        std::printf("%s\n", line.c_str());
    std::printf("\n");
}

inline int verdictFailures = 0;

inline void
verdict(bool ok, const std::string &what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "MISMATCH", what.c_str());
    if (!ok)
        ++verdictFailures;
}

inline int
finish()
{
    std::printf("\n%s\n", verdictFailures == 0
                              ? "FIGURE REPRODUCED."
                              : "FIGURE REPRODUCTION FAILED.");
    return verdictFailures == 0 ? 0 : 1;
}

inline MemOp
rd(Addr a)
{
    return MemOp{OpType::Read, a, 0, false};
}

inline MemOp
wr(Addr a, Word v)
{
    return MemOp{OpType::Write, a, v, false};
}

inline MemOp
lockRd(Addr a)
{
    return MemOp{OpType::LockRead, a, 0, false};
}

inline MemOp
unlockWr(Addr a, Word v)
{
    return MemOp{OpType::UnlockWrite, a, v, false};
}

} // namespace fig
} // namespace csync

#endif // CSYNC_BENCH_FIG_COMMON_HH
