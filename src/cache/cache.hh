/**
 * @file
 * The snooping cache controller.  The Cache does the protocol-independent
 * mechanics — frame lookup and allocation, eviction (with piggybacked
 * victim write-back), bus requests, the fetch-then-replay operation loop,
 * the busy-wait register, checker hooks, and statistics — and delegates
 * every policy decision to its Protocol.
 */

#ifndef CSYNC_CACHE_CACHE_HH
#define CSYNC_CACHE_CACHE_HH

#include <functional>
#include <memory>
#include <unordered_set>

#include "cache/cache_blocks.hh"
#include "cache/directory.hh"
#include "coherence/protocol.hh"
#include "core/busy_wait.hh"
#include "mem/bus.hh"
#include "proc/mem_op.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "system/checker.hh"

namespace csync
{

/** Per-cache configuration. */
struct CacheConfig
{
    CacheGeometry geom;
    /** Processor-visible latency of a cache hit, in cycles. */
    Tick hitLatency = 1;
    /** Directory organization (Feature 3). */
    DirectoryKind directory = DirectoryKind::IdenticalDual;
    /** Enable the busy-wait register (Section E.4).  Without it, a
     *  locked response is retried on the bus (for ablation). */
    bool useBusyWaitRegister = true;
    /** Use the dedicated most-significant arbitration priority bit when
     *  a busy-wait register answers an unlock broadcast (Section E.4).
     *  Disable for ablation: waiters then arbitrate at normal priority
     *  and competing data traffic delays lock hand-offs. */
    bool busyWaitPriority = true;
};

/**
 * One processor's private snooping cache.
 */
class Cache : public SimObject, public BusClient
{
  public:
    /** Completion callback to the processor. */
    using AccessCallback = std::function<void(const AccessResult &)>;

    /** Handler invoked when a busy-waited lock is finally acquired (the
     *  "interrupt" of Figure 9), enabling work-while-waiting. */
    using LockInterruptHandler =
        std::function<void(const MemOp &, const AccessResult &)>;

    /**
     * @param name Instance name.
     * @param eq Event queue.
     * @param id Node id on the bus (0-based, dense).
     * @param reg_id Node id for the busy-wait register.
     * @param config Geometry and options.
     * @param protocol Coherence protocol (owned).
     * @param bus The bus this port posts to (cache and register
     *            are registered as clients by the caller, in id order).
     * @param checker Optional coherence checker (may be nullptr).
     * @param stats_parent Statistics parent group.
     */
    Cache(std::string name, EventQueue *eq, NodeId id, NodeId reg_id,
          const CacheConfig &config, std::unique_ptr<Protocol> protocol,
          Bus *bus, Checker *checker,
          stats::Group *stats_parent);

    /**
     * Issue one processor operation.  The cache is blocking: the next
     * access may only be issued after the callback fires (exception: a
     * LockRead that returned waiting=true under a lock-interrupt handler
     * completes later through the handler).
     */
    void access(const MemOp &op, AccessCallback cb);

    /** True if no operation is in progress. */
    bool idle() const { return phase_ == Phase::Idle; }

    /** Install a lock-interrupt handler (enables work-while-waiting). */
    void setLockInterruptHandler(LockInterruptHandler handler);

    /** @name Introspection (tests, scenarios, checkers) */
    /// @{
    State stateOf(Addr addr) const;
    Word peekWord(Addr addr) const;
    const Frame *peekFrame(Addr addr) const;
    bool busyWaitArmed() const { return bwReg_.armed(); }
    Addr busyWaitAddr() const { return bwReg_.blockAddr(); }
    const CacheBlocks &blocks() const { return blocks_; }

    /** Mutable frame access for tests and the Figure 10 transition
     *  enumerator; nullptr if the block is not resident. */
    Frame *mutableFrame(Addr addr) { return blocks_.find(blockAlign(addr)); }

    /** Force a block into the cache in a given state (tests and the
     *  transition enumerator only — bypasses the protocol). */
    Frame &installFrameForTest(Addr addr, State state,
                               const std::vector<Word> *data = nullptr);
    /// @}

    /** @name Access for protocols and the busy-wait register */
    /// @{
    Protocol &protocol() { return *protocol_; }
    Bus &bus() { return *bus_; }
    Memory &memory() { return bus_->memory(); }
    DirectoryModel &directory() { return dir_; }
    Checker *checker() { return checker_; }
    BusyWaitRegister &busyWaitRegister() { return bwReg_; }
    const CacheConfig &config() const { return config_; }
    unsigned blockWords() const { return config_.geom.blockWords; }
    Addr blockAlign(Addr a) const { return blocks_.blockAlign(a); }

    /** True if @p msg was issued by this cache's busy-wait register. */
    bool
    isBusyWaitRegisterRequest(const BusMsg &msg) const
    {
        return msg.requester == bwReg_.nodeId();
    }

    /** True if the *current* operation acquired its block's lock via a
     *  ReadLock fetch (protocols use this to tell an RMW's own
     *  transient lock from a program lock held across the RMW). */
    bool opLockFetched() const { return opLockFetched_; }

    /** Track a lock this cache purged to memory (Section E.3). */
    void notePurgedLock(Addr block_addr, bool held);

    /** True if this cache holds the lock for a purged block. */
    bool holdsPurgedLock(Addr block_addr) const;

    /** Busy-wait register grant: choose the install frame, piggyback a
     *  victim write-back into @p msg, fill the lock-fetch fields. */
    void prepareLockFetch(BusMsg &msg);

    /** Busy-wait register completion: the lock was won (Figure 9). */
    void lockFetchCompleted(const BusMsg &msg, const SnoopResult &res);

    /** Busy-wait register completion with the block still locked. */
    void lockFetchDenied();
    /// @}

    /** @name BusClient interface */
    /// @{
    NodeId nodeId() const override { return id_; }
    bool busGrant(BusMsg &msg) override;
    SnoopReply snoop(const BusMsg &msg) override;
    void busComplete(const BusMsg &msg, const SnoopResult &res) override;
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar accesses;
    stats::Scalar readOps;
    stats::Scalar writeOps;
    stats::Scalar rmwOps;
    stats::Scalar lockOps;
    stats::Scalar unlockOps;
    stats::Scalar writeNoFetchOps;
    stats::Scalar hitsLocal;
    stats::Scalar missesBus;
    stats::Scalar busTransactions;
    stats::Scalar invalidationsReceived;
    stats::Scalar updatesReceived;
    stats::Scalar blocksSupplied;
    stats::Scalar evictions;
    stats::Scalar writebacks;
    stats::Scalar lockedPurges;
    stats::Scalar locksAcquired;
    stats::Scalar zeroTimeLocks;
    stats::Scalar zeroTimeUnlocks;
    stats::Scalar unlockBroadcasts;
    stats::Scalar busyWaitArms;
    stats::Scalar busyWaitInterrupts;
    stats::Scalar lockRetries;
    stats::Histogram opLatency;
    stats::Histogram lockWaitTime;
    stats::Formula hitRatio;
    stats::Formula busPerAccess;
    /// @}

  private:
    enum class Phase
    {
        Idle,
        /** A bus request for the current operation is queued/in flight. */
        MainReq,
    };

    /** Dispatch the current op to the protocol and act on the result. */
    void dispatch();

    /** Route the op to the right Protocol::proc* method. */
    ProcAction dispatchToProtocol(Frame *f);

    /** Apply the op's data effects and fill the result. */
    void applyOp(Frame &f, AccessResult &r);

    /** Record per-transfer-unit dirt for a written word (Section D.3). */
    void markUnitDirty(Frame &f, unsigned word_idx);

    /** Give a freshly fetched frame the supplier's per-unit dirt if it
     *  took dirty responsibility, else all-clean units (Section D.3). */
    void inheritUnitDirty(Frame &f, const SnoopResult &res);

    /** Complete the current op locally (hit path). */
    void completeLocally(Frame &f);

    /** Deliver the result and return to Idle. */
    void finishOp(const AccessResult &r);

    /** Choose/clear the frame a fetched block will occupy; piggyback the
     *  victim write-back into @p msg. */
    Frame *prepareInstall(BusMsg &msg);

    /** Begin busy-waiting on the current (lock) operation. */
    void armBusyWait(Addr block_addr);

    /** Replay a busy-waited lock op after the interrupt. */
    void startLockReplay();

    NodeId id_;
    CacheConfig config_;
    std::unique_ptr<Protocol> protocol_;
    Bus *bus_;
    Checker *checker_;
    CacheBlocks blocks_;
    DirectoryModel dir_;
    BusyWaitRegister bwReg_;

    Phase phase_ = Phase::Idle;
    MemOp curOp_;
    AccessCallback curCb_;
    Tick opIssued_ = 0;
    bool firstDispatch_ = true;
    int replays_ = 0;
    ProcAction pendingAction_;
    BusMsg pendingMsg_;
    Frame *installTarget_ = nullptr;
    bool checkerRecorded_ = false;
    Word rmwOldValue_ = 0;
    bool rmwOldValid_ = false;
    bool opLockFetched_ = false;
    State decisionState_ = Inv;

    LockInterruptHandler lockHandler_;
    bool lockOpWaiting_ = false;
    MemOp pendingLockOp_;
    AccessCallback pendingLockCb_;
    Tick lockWaitStart_ = 0;
    bool lockReplayPending_ = false;
    Frame *lockInstallTarget_ = nullptr;

    std::unordered_set<Addr> purgedLocks_;
};

} // namespace csync

#endif // CSYNC_CACHE_CACHE_HH
