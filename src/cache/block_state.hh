/**
 * @file
 * Cache-block states encoded as bitmasks of the property words the paper
 * uses to *name* its states (Section E.1): Valid, Write (sole-access
 * privilege), Lock, Dirty, Source, Waiter.  Two extra bits serve the
 * write-update hybrids of Section D: Shared (writes must be broadcast) and
 * WroteOnce (Rudolph & Segall's interleave detector).
 *
 * Encoding states this way means the "states" rows of Table 1 and all
 * coherence invariants (single writer, single source, ...) can be computed
 * from the protocol implementations instead of being asserted by hand.
 */

#ifndef CSYNC_CACHE_BLOCK_STATE_HH
#define CSYNC_CACHE_BLOCK_STATE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace csync
{

/** A block state: a bitwise OR of StateBits values. */
using State = std::uint8_t;

/** Individual state property bits. */
enum StateBits : State
{
    /** The frame holds meaningful data. */
    BitValid  = 0x01,
    /** Sole-access (read and write) privilege. */
    BitWrite  = 0x02,
    /** Locked by this cache (Bitar lock states; implies BitWrite). */
    BitLock   = 0x04,
    /** Written since memory was last updated. */
    BitDirty  = 0x08,
    /** This cache is the source of the latest version of the block. */
    BitSource = 0x10,
    /** Another cache requested the block while it was locked. */
    BitWaiter = 0x20,
    /** Copies may exist elsewhere; writes must be broadcast (update
     *  protocols: Dragon/Firefly/Rudolph-Segall). */
    BitShared = 0x40,
    /** Rudolph-Segall: this cache wrote the block once since the last
     *  access by another processor. */
    BitWroteOnce = 0x80,
};

/** @name Canonical named states (the paper's eight, plus helpers). */
/// @{
constexpr State Inv        = 0;
constexpr State Rd         = BitValid;
constexpr State RdSrcCln   = BitValid | BitSource;
constexpr State RdSrcDty   = BitValid | BitSource | BitDirty;
constexpr State WrCln      = BitValid | BitWrite;
constexpr State WrDty      = BitValid | BitWrite | BitDirty;
constexpr State WrSrcCln   = BitValid | BitWrite | BitSource;
constexpr State WrSrcDty   = BitValid | BitWrite | BitSource | BitDirty;
constexpr State LkSrcDty   = BitValid | BitWrite | BitLock | BitSource |
                             BitDirty;
constexpr State LkSrcDtyWt = LkSrcDty | BitWaiter;
/// @}

/** @name State property predicates. */
/// @{
constexpr bool isValid(State s)  { return s & BitValid; }
constexpr bool canRead(State s)  { return s & BitValid; }
constexpr bool canWrite(State s) { return (s & BitValid) && (s & BitWrite); }
constexpr bool isLocked(State s) { return s & BitLock; }
constexpr bool isDirty(State s)  { return s & BitDirty; }
constexpr bool isSource(State s) { return s & BitSource; }
constexpr bool hasWaiter(State s){ return s & BitWaiter; }
constexpr bool isSharedHint(State s) { return s & BitShared; }
constexpr bool wroteOnce(State s){ return s & BitWroteOnce; }
/// @}

/**
 * Render a state the way the paper names them, e.g.
 * "Write,Source,Dirty" or "Invalid".  Shared/WroteOnce bits are rendered
 * as ",Shared"/",WroteOnce" suffixes for the hybrid protocols.  Served
 * from a table built once over every State value, so passing it to a
 * disabled trace() costs a lookup, not a string build.
 */
const std::string &stateName(State s);

/** Short render for tables, e.g. "W.S.D" / "L.S.D.W" / "I". */
std::string stateAbbrev(State s);

/**
 * The paper's Table 1 "states" axis: the eight canonical rows in
 * presentation order.
 */
const std::vector<State> &table1StateRows();

} // namespace csync

#endif // CSYNC_CACHE_BLOCK_STATE_HH
