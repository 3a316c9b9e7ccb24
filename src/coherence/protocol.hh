/**
 * @file
 * The coherence-protocol interface.  A Protocol is the pure policy brain
 * of a cache: given a processor operation or a snooped bus transaction it
 * decides state transitions and what (if anything) must go on the bus.
 * The Cache object does the mechanics — frame allocation, eviction,
 * timing, statistics, the busy-wait register — so all ten protocols share
 * one substrate and differ only in policy, which is exactly how the paper
 * frames their evolution (Section F).
 */

#ifndef CSYNC_COHERENCE_PROTOCOL_HH
#define CSYNC_COHERENCE_PROTOCOL_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/block_state.hh"
#include "cache/cache_blocks.hh"
#include "cache/directory.hh"
#include "mem/bus_msg.hh"
#include "proc/mem_op.hh"
#include "sim/checkpoint.hh"

namespace csync
{

class Cache;

/** Broad policy family (Sections D, F). */
enum class ProtocolStyle
{
    /** Classic write-through with invalidation broadcast (pre-1978). */
    WriteThrough,
    /** Full-broadcast write-in (write-back): Goodman .. Bitar. */
    WriteIn,
    /** Write-in for unshared data, write-through/update for shared data
     *  (Dragon, Firefly, Rudolph-Segall). */
    Hybrid,
};

/** What a cache should do for a processor operation. */
struct ProcAction
{
    enum class Kind
    {
        /** Complete locally; no bus transaction. */
        Hit,
        /** Issue the bus transaction described below. */
        Bus,
    };

    Kind kind = Kind::Hit;
    /** Bus request type when kind == Bus. */
    BusReq busReq = BusReq::ReadShared;
    /** The requester already holds valid data (privilege-only request,
     *  Figure 5). */
    bool hasData = false;
    /** For UpdateWord: write through to memory as well (Firefly). */
    bool updateMemory = false;
    /**
     * The bus transaction completes the processor operation (e.g. a
     * write-through word write).  When false, the cache re-dispatches the
     * operation after the transaction (fetch-then-replay), letting
     * multi-transaction sequences like Goodman's write-once unfold.
     */
    bool completesOp = false;

    static ProcAction hit() { return ProcAction{}; }

    static ProcAction
    bus(BusReq req, bool has_data = false, bool update_memory = false,
        bool completes_op = false)
    {
        return ProcAction{Kind::Bus, req, has_data, update_memory,
                          completes_op};
    }

    /** A bus transaction after which the operation is complete. */
    static ProcAction
    busFinal(BusReq req, bool has_data = false, bool update_memory = false)
    {
        return bus(req, has_data, update_memory, true);
    }
};

/**
 * Feature vector for the Table 1 rows (Features 1-10).  Populated by each
 * protocol; the feature-audit engine cross-checks the claims behaviorally.
 */
struct Features
{
    /** Feature 1: cache-to-cache transfer & serialization of conflicting
     *  single reads and writes. */
    bool cacheToCache = false;
    bool serializesConflicts = false;
    /** Feature 2: which status letters are fully distributed in the
     *  caches (R/W/L/D/S). */
    std::string distributedState;
    /** Feature 3: directory organization (ID / NID / DPR / none). */
    DirectoryKind directory = DirectoryKind::IdenticalDual;
    bool directorySpecified = false;
    /** Feature 4: bus invalidate signal (no invalidation write-through). */
    bool busInvalidateSignal = false;
    /** Feature 5: fetching unshared data for write privilege on a read
     *  miss: 0 = no, 'D' = dynamic (hit line), 'S' = static (compiler). */
    char fetchUnsharedForWrite = 0;
    /** Feature 6: serialized processor atomic read-modify-write. */
    bool atomicRmw = false;
    /** Feature 7: flushing on cache-to-cache transfer: "F", "NF", "NF,S". */
    std::string flushPolicy;
    /** Feature 8: source policy for read-privilege blocks:
     *  "ARB", "MEM", "LRU,MEM", or "" (dirty-only source). */
    std::string sourcePolicy;
    /** Feature 9: writing without fetch on a write miss. */
    bool writeNoFetch = false;
    /** Feature 10: efficient busy wait. */
    bool efficientBusyWait = false;
};

/**
 * Abstract coherence protocol.
 */
class Protocol
{
  public:
    virtual ~Protocol() = default;

    /** Short identifier used in tables and the factory ("goodman"...). */
    virtual std::string name() const = 0;

    /** Publication the protocol reproduces ("Goodman 1983", ...). */
    virtual std::string citation() const = 0;

    /** Policy family. */
    virtual ProtocolStyle style() const = 0;

    /** The protocol implements the LockRead/UnlockWrite instructions. */
    virtual bool supportsLockOps() const { return false; }

    /** The protocol implements write-without-fetch (Feature 9). */
    virtual bool supportsWriteNoFetch() const { return false; }

    /** Feature vector for Table 1. */
    virtual Features features() const = 0;

    /** The block states this protocol can produce (Table 1 upper part). */
    virtual std::vector<State> statesUsed() const = 0;

    /** @name Processor-side policy.
     * @p f is the frame currently holding the block (nullptr on a miss
     * with no frame).  Implementations may mutate the frame state for
     * hits; on Kind::Bus the transition completes in finishBus().
     */
    /// @{
    virtual ProcAction procRead(Cache &c, Frame *f, const MemOp &op) = 0;
    virtual ProcAction procWrite(Cache &c, Frame *f, const MemOp &op) = 0;

    /** Atomic read-modify-write; default: gain write privilege like a
     *  write (Feature 6, second method). */
    virtual ProcAction procRmw(Cache &c, Frame *f, const MemOp &op);

    /** Lock instruction (Bitar only by default). */
    virtual ProcAction procLockRead(Cache &c, Frame *f, const MemOp &op);

    /** Unlock instruction (Bitar only by default). */
    virtual ProcAction procUnlockWrite(Cache &c, Frame *f, const MemOp &op);

    /** Write-without-fetch (Feature 9; Bitar only by default). */
    virtual ProcAction procWriteNoFetch(Cache &c, Frame *f, const MemOp &op);
    /// @}

    /**
     * Requester-side completion of a bus transaction: set the new frame
     * state from the snoop result (hit line, source status, ...).
     * @p f is the frame the block now occupies (data already copied in).
     */
    virtual void finishBus(Cache &c, const BusMsg &msg,
                           const SnoopResult &res, Frame &f) = 0;

    /**
     * Snooper-side handling of another node's transaction.  @p f is this
     * cache's frame for the block, or nullptr.  Must apply this cache's
     * state change and describe what it drove on the bus lines.
     */
    virtual SnoopReply snoop(Cache &c, const BusMsg &msg, Frame *f) = 0;

    /** Does evicting @p f require a WriteBack transaction? */
    virtual bool evictNeedsWriteback(Cache &c, const Frame &f) const;

    /** Protocol hook run when @p f is evicted (fix memory tags etc.). */
    virtual void onEvict(Cache &c, Frame &f);

    /**
     * Opaque snapshot of any protocol-internal mutable state, folded
     * into model-checker state digests.  All shipped protocols keep
     * their policy state in frame/memory/directory tags and return "";
     * a stateful protocol must serialize whatever else it tracks so two
     * digest-equal systems really are interchangeable.
     */
    virtual std::string snapshotState() const { return {}; }

    /**
     * Append the same protocol-internal state to a quiescent checkpoint
     * (System::checkpoint), and read it back in restore().  Stateless
     * protocols save nothing; decorators forward to what they wrap.
     */
    virtual void checkpoint(CheckpointWords &) const {}
    virtual void restore(WordReader &) {}
};

/**
 * Protocol factory registry.  Protocols register themselves by name;
 * benches and tests instantiate them with makeProtocol().
 */
class ProtocolRegistry
{
  public:
    using Maker = std::function<std::unique_ptr<Protocol>()>;

    /** Register a protocol maker under @p name.  Returns true. */
    static bool registerProtocol(const std::string &name, Maker maker);

    /** Instantiate a protocol by name (fatal if unknown). */
    static std::unique_ptr<Protocol> make(const std::string &name);

    /** All registered names, sorted. */
    static std::vector<std::string> names();

    /** Names in the paper's Table 1 column order. */
    static std::vector<std::string> table1Order();

  private:
    static std::map<std::string, Maker> &makers();
};

/** Convenience: instantiate a protocol by registry name. */
std::unique_ptr<Protocol> makeProtocol(const std::string &name);

} // namespace csync

#endif // CSYNC_COHERENCE_PROTOCOL_HH
