/**
 * @file
 * The bus transaction vocabulary of a full-broadcast, single-bus system
 * (Section A.2), covering every request type used by the ten protocols:
 * block fetches with read/write/lock privilege, the one-cycle invalidate
 * signal (Feature 4), word write-throughs and write-broadcasts (Section D),
 * write-back flushes, write-without-fetch (Feature 9), the unlock
 * broadcast (Section E.4), and I/O transfers (Feature 11).
 */

#ifndef CSYNC_MEM_BUS_MSG_HH
#define CSYNC_MEM_BUS_MSG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace csync
{

/** Kinds of bus transactions. */
enum class BusReq : std::uint8_t
{
    /** Fetch a block with read (shared-access) privilege. */
    ReadShared,
    /** Fetch a block with write (sole-access) privilege; invalidates other
     *  copies concurrently if the bus supports it (Feature 4). */
    ReadExclusive,
    /** Gain write privilege for an already-valid block: one-cycle
     *  invalidation, no data transfer (Figure 5 / Feature 4). */
    Upgrade,
    /** Fetch a block with write privilege and lock it (Figure 6; Bitar). */
    ReadLock,
    /** Write one word through to main memory, invalidating other copies
     *  (classic scheme; Goodman's write-once first write). */
    WriteWord,
    /** Broadcast one word to other caches holding the block (and possibly
     *  memory): Dragon / Firefly / Rudolph-Segall update write. */
    UpdateWord,
    /** Flush a (dirty) block to main memory on purge. */
    WriteBack,
    /** Claim a whole block with write privilege without fetching data
     *  (Feature 9: saving process state). */
    WriteNoFetch,
    /** One-cycle broadcast that a locked block was unlocked (Figure 8). */
    UnlockBroadcast,
    /** I/O input: invalidate the block everywhere while memory is
     *  written by the I/O processor (Section E.2). */
    IOInvalidate,
    /** I/O non-paging output: read latest version; the source cache keeps
     *  its source status (Section E.2). */
    IOReadKeepSource,
};

/** Number of distinct BusReq codes (for tables and "all types" loops). */
inline constexpr std::size_t kNumBusReqs =
    std::size_t(BusReq::IOReadKeepSource) + 1;

/** Human-readable name of a bus request type. */
const char *busReqName(BusReq req);

/**
 * Parse a request-type name produced by busReqName().
 * @return true and set @p out on a match, false on an unknown name.
 */
bool busReqFromName(const std::string &name, BusReq *out);

/** True for requests that transfer a whole block of data to the requester. */
bool transfersBlock(BusReq req);

/**
 * Which traffic system a reference belongs to in the paper's Aquarius
 * design (Section E.2, Figure 11): hard atoms ride the synchronization
 * system, instructions and other data the data system.  On a single-bus
 * topology the class is recorded but changes nothing.
 */
enum class TrafficClass : std::uint8_t
{
    /** Instruction fetches and non-synchronization data. */
    Data,
    /** Hard atoms: lock/unlock traffic, RMWs, I/O broadcasts. */
    Sync,
};

/** Number of traffic classes. */
inline constexpr std::size_t kNumTrafficClasses = 2;

/** Human-readable name of a traffic class ("data" / "sync"). */
const char *trafficClassName(TrafficClass cls);

/** Bit in a carries-mask (SwitchSpec::carries) for class @p cls. */
inline constexpr unsigned
trafficClassBit(TrafficClass cls)
{
    return 1u << unsigned(cls);
}

/** Arbitration priority classes. */
enum class BusPriority : int
{
    Normal = 0,
    /** The dedicated high-priority level used by busy-wait registers when
     *  an unlock broadcast fires (Section E.4). */
    BusyWait = 1,
};

/** Carries-mask covering every traffic class. */
inline constexpr unsigned kAllTraffic =
    trafficClassBit(TrafficClass::Data) | trafficClassBit(TrafficClass::Sync);

/**
 * One bus transaction as broadcast to all snoopers.
 */
struct BusMsg
{
    BusReq req = BusReq::ReadShared;
    /** Traffic system the reference belongs to (Section E.2). */
    TrafficClass cls = TrafficClass::Data;
    /** Block-aligned address of the target block. */
    Addr blockAddr = 0;
    /** Requesting node (cache id), or invalidNode for an I/O device. */
    NodeId requester = invalidNode;
    /** Word address for WriteWord/UpdateWord. */
    Addr wordAddr = 0;
    /** Data value for WriteWord/UpdateWord. */
    Word wordData = 0;
    /** True if the requester already has valid data (privilege only). */
    bool hasData = false;
    /** Compiler static hint: target data is unshared (Yen / Katz,
     *  Feature 5 'S'). */
    bool privateHint = false;
    /** For UpdateWord: also update main memory (Firefly writes through to
     *  memory for shared data; Dragon does not). */
    bool updateMemory = false;
    /** Requester's transfer-unit size in words (Section D.3); 0 = whole
     *  block.  Memory supplies charge only one unit when set. */
    unsigned unitWords = 0;
    /** Block payload for WriteBack transactions. */
    std::vector<Word> blockData;
    /** @name Piggybacked victim write-back.
     * A fetch that displaces a dirty victim carries the victim's flush in
     * the same bus tenure, keeping the bus atomic (no window where the
     * victim's latest version is in neither a cache nor memory).
     */
    /// @{
    bool wbValid = false;
    Addr wbAddr = 0;
    std::vector<Word> wbData;
    /** Words actually flushed (dirty transfer units); 0 = whole block. */
    unsigned wbWordCount = 0;
    /// @}

    /** Return to the default-constructed message, keeping the payload
     *  buffers' capacity so a reused message never reallocates. */
    void
    reset()
    {
        std::vector<Word> block = std::move(blockData);
        std::vector<Word> wb = std::move(wbData);
        *this = BusMsg{};
        block.clear();
        wb.clear();
        blockData = std::move(block);
        wbData = std::move(wb);
    }
};

/**
 * What one snooping cache answered for a transaction.  Snoopers apply
 * their own state changes as they answer; this reply carries what the
 * requester and the bus need to know.
 */
struct SnoopReply
{
    /** The snooper has a valid copy (drives the wired-OR hit line). */
    bool hasCopy = false;
    /** The snooper has source status for the block. */
    bool source = false;
    /** The snooper's copy is dirty (clean/dirty status, Figure 4). */
    bool dirty = false;
    /** The snooper will supply the block (cache-to-cache transfer). */
    bool supplyData = false;
    /** The block is locked at the snooper: the request cannot be
     *  serviced; the snooper has recorded a waiter (Figure 7). */
    bool locked = false;
    /** The snooper wrote its dirty block back as part of this snoop
     *  (Synapse-style: memory is updated, requester must re-fetch). */
    bool flushedFirst = false;
    /** Flush the supplied block to memory concurrently with the transfer
     *  (Feature 7 'F', as in Papamarcos & Patel). */
    bool flushToMemory = false;
    /** Block payload when supplyData (or flushedFirst) is set. */
    std::vector<Word> data;
    /** Words actually moved (requested unit + dirty units, Section
     *  D.3); 0 = the whole block. */
    unsigned transferWordCount = 0;
    /** Per-unit dirty bits travelling with the block (status transfer,
     *  Feature 7 'S'); empty when units are disabled. */
    std::vector<bool> unitDirty;
};

/**
 * The aggregate of every snooper's reply plus memory's contribution,
 * handed to the requester when its transaction completes.
 */
struct SnoopResult
{
    /** Some other cache has a valid copy (the hit line, Figure 1). */
    bool hit = false;
    /** A source cache existed (the dirty-status lines were driven). */
    bool sourceExisted = false;
    /** Clean/dirty status supplied by the source (Figure 4). */
    bool sourceDirty = false;
    /** Who supplied the data block (invalidNode => main memory). */
    NodeId supplier = invalidNode;
    /** Number of other caches that had a valid copy. */
    int copies = 0;
    /** The block was locked (in a cache, or in memory's lock tags);
     *  the requester must busy-wait (Figure 7). */
    bool locked = false;
    /** A Synapse-style flush-then-refetch occurred (counted as a retry). */
    bool retried = false;
    /** Data words delivered for block transfers (empty otherwise). */
    std::vector<Word> data;
    /** Per-unit dirty bits inherited with the block (Section D.3). */
    std::vector<bool> unitDirty;

    /** Return to the default-constructed result, keeping the buffers'
     *  capacity (see BusMsg::reset()). */
    void
    reset()
    {
        std::vector<Word> words = std::move(data);
        std::vector<bool> units = std::move(unitDirty);
        *this = SnoopResult{};
        words.clear();
        units.clear();
        data = std::move(words);
        unitDirty = std::move(units);
    }
};

} // namespace csync

#endif // CSYNC_MEM_BUS_MSG_HH
