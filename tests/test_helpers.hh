/**
 * @file
 * Shared helpers for protocol and system tests.
 */

#ifndef CSYNC_TESTS_TEST_HELPERS_HH
#define CSYNC_TESTS_TEST_HELPERS_HH

#include "proc/mem_op.hh"
#include "system/scenario.hh"

namespace csync
{
namespace test
{

inline MemOp
rd(Addr a, bool hint = false)
{
    return MemOp{OpType::Read, a, 0, hint};
}

inline MemOp
wr(Addr a, Word v)
{
    return MemOp{OpType::Write, a, v, false};
}

inline MemOp
rmw(Addr a, Word v)
{
    return MemOp{OpType::Rmw, a, v, false};
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

inline MemOp
wnf(Addr a, Word v)
{
    return MemOp{OpType::WriteNoFetch, a, v, false};
}

/** A small directed-test machine (3 caches of 16 four-word frames). */
inline SystemConfig
opts(const std::string &protocol, unsigned procs = 3,
     unsigned block_words = 4, unsigned frames = 16, unsigned ways = 0)
{
    SystemConfig c;
    c.protocol = protocol;
    c.numProcessors = procs;
    c.cache.geom.blockWords = block_words;
    c.cache.geom.frames = frames;
    c.cache.geom.ways = ways;
    return c;
}

} // namespace test
} // namespace csync

#endif // CSYNC_TESTS_TEST_HELPERS_HH
