/**
 * @file
 * The single, atomic, full-broadcast bus (Section A.2).  At each setting
 * of the interconnect exactly one requester broadcasts its request; every
 * other cache snoops it and answers over wired-OR lines (hit, dirty
 * status, busy/locked); the block is supplied by the source cache if one
 * exists, otherwise by main memory.
 *
 * Arbitration is delegated to a pluggable ArbitrationPolicy (round-robin
 * by default; see mem/arbitration.hh), except that a request posted with
 * BusPriority::BusyWait uses the dedicated most-significant priority bit
 * the paper gives to busy-wait registers (Section E.4), and always wins
 * over normal requests regardless of discipline.  The service discipline
 * is the bus's only extension point: fault injection
 * (fault/fault_injector.hh) and the cluster-boundary snoop filter
 * (ClusterGate, cache/shared_cache.hh) are optional members it calls
 * directly.
 */

#ifndef CSYNC_MEM_BUS_HH
#define CSYNC_MEM_BUS_HH

#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_injector.hh"
#include "mem/arbitration.hh"
#include "mem/bus_msg.hh"
#include "mem/memory.hh"
#include "mem/timing.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace csync
{

class ClusterGate;

/**
 * Interface every bus client (cache port, busy-wait register, or I/O
 * device) implements.
 */
class BusClient
{
  public:
    virtual ~BusClient() = default;

    /** Unique id of this node on its bus. */
    virtual NodeId nodeId() const = 0;

    /**
     * The client won arbitration.  Fill in @p msg and return true, or
     * return false to decline (e.g. the awaited lock was already taken by
     * another winner).
     */
    virtual bool busGrant(BusMsg &msg) = 0;

    /**
     * Snoop a transaction broadcast by another node.  The client applies
     * its own state changes and answers with what it drove onto the
     * bus lines.
     */
    virtual SnoopReply snoop(const BusMsg &msg) = 0;

    /** The client's own transaction completed. */
    virtual void busComplete(const BusMsg &msg, const SnoopResult &res) = 0;
};

/**
 * The broadcast bus: arbitration, snooping, data routing, and timing.
 * Every switch of a System's interconnect (Section E.2, Figure 11) is
 * a Bus; clients see one contract: addClient() in nodeId order, then
 * request()/cancel() and the BusClient callbacks.  Which switch a
 * reference uses is decided above this layer (the AddressMap in
 * system/topology.hh); which traffic class it belongs to rides in
 * BusMsg::cls.
 */
class Bus final : public SimObject
{
  public:
    /**
     * @param carries Mask of trafficClassBit() values this switch is
     *        meant to carry (kAllTraffic for a lone bus).  Advisory:
     *        routing is by address; the mask feeds the misrouted-traffic
     *        counter and topology checks.
     * @param multi_switch This bus is one switch of several: register
     *        per-traffic-class counters and prefix the fault stat
     *        groups with "<name>.".  Off by default so single-bus stat
     *        dumps keep their names; a multi-switch System turns it on
     *        for every switch.
     * @param arbitration Service discipline name (mem/arbitration.hh);
     *        the default reproduces the paper's round-robin exactly.
     * @param faults Fault plan to inject on this bus, or null (the
     *        default) for a clean bus with an unchanged stats tree.
     */
    Bus(std::string name, EventQueue *eq, Memory *memory,
        const BusTiming &timing, stats::Group *stats_parent,
        unsigned carries = kAllTraffic, bool multi_switch = false,
        const std::string &arbitration = "round_robin",
        const FaultPlan *faults = nullptr);

    /** Attach a client (caches in nodeId order, then I/O devices). */
    void addClient(BusClient *client);

    /** Main memory behind the bus. */
    Memory &memory() { return *memory_; }

    /**
     * Post a bus request for @p client.  A client has at most one pending
     * request; re-posting updates its priority and traffic class.  @p cls
     * is what the client's eventual transaction will carry — arbitration
     * policies that discriminate by traffic system
     * (alternating_priority) read it at grant-decision time.
     */
    void request(BusClient *client, BusPriority pri = BusPriority::Normal,
                 TrafficClass cls = TrafficClass::Data);

    /** Withdraw a pending request (e.g. busy-wait loser). */
    void cancel(BusClient *client);

    /** True if @p client currently has a request queued. */
    bool requestPending(const BusClient *client) const;

    /**
     * Install the cluster-boundary snoop gate (hierarchical topologies;
     * see cache/shared_cache.hh).  Null — the default, and the only
     * state flat topologies ever see — broadcasts every transaction to
     * every client.  The gate is owned by the System and must outlive
     * the bus's last transaction.
     */
    void setClusterGate(ClusterGate *gate) { gate_ = gate; }

    /** The fault injector of a faulted bus, or null on a clean one. */
    const FaultInjector *faults() const { return faults_.get(); }

    /** True once any transaction has been broadcast (diagnostics). */
    bool hasLastMsg() const { return hasLastMsg_; }

    /** The most recently broadcast message (valid if hasLastMsg()). */
    const BusMsg &lastMsg() const { return lastMsg_; }

    /** Tick at which lastMsg() was broadcast. */
    Tick lastMsgTick() const { return lastMsgTick_; }

    /** The bus's part of a quiescent checkpoint: the arbitration
     *  policy's grant history.  An idle bus holds no other behaviour;
     *  the last-message diagnostics are not saved. */
    struct Checkpoint
    {
        CheckpointWords arbitration;
    };

    /** Save an idle bus; panics on queued or in-flight requests and on
     *  a faulted bus (the fault injector's draws are not saved). */
    void checkpoint(Checkpoint &out) const;

    /** Drop any queued requests and restore the grant history. */
    void restore(const Checkpoint &cp);

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar transactions;
    stats::Scalar busyCycles;
    stats::Scalar dataTransferCycles;
    stats::Scalar memSupplies;
    stats::Scalar cacheSupplies;
    stats::Scalar lockedResponses;
    stats::Scalar retries;
    stats::Scalar highPriorityGrants;
    stats::Scalar sourceArbitrations;
    /// @}

    /** Per-request-type transaction count. */
    double typeCount(BusReq req) const;

    /**
     * Transactions of traffic class @p cls (0 unless per-class counters
     * were enabled at construction).
     */
    double classCount(TrafficClass cls) const;

    /**
     * Transactions whose class is outside this switch's carries mask
     * (0 unless per-class counters were enabled).  Nonzero means the
     * topology routes references the paper would put on the other
     * system — e.g. data traffic in the sync bus's address range.
     */
    double misroutedCount() const;

  private:
    struct Pending
    {
        BusClient *client;
        BusPriority pri;
        TrafficClass cls;
        Tick posted;
    };

    void scheduleArbitration();
    /** Occupy the bus for @p dur ticks with no transaction (an injected
     *  stall or a refused handshake), then rerun arbitration. */
    void holdIdle(Tick dur);
    void arbitrate();
    /** Broadcast the parked message (lastMsg_) and schedule its
     *  completion. */
    void execute(BusClient *requester);

    Memory *memory_;
    BusTiming timing_;
    unsigned carries_;
    std::vector<std::unique_ptr<stats::Scalar>> perType_;
    /** Per-traffic-class counters; registered only when multi_switch. */
    std::vector<std::unique_ptr<stats::Scalar>> perClass_;
    std::unique_ptr<stats::Scalar> misrouted_;
    std::vector<BusClient *> clients_;
    std::vector<Pending> queue_;
    ClusterGate *gate_ = nullptr;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<ArbitrationPolicy> arb_;
    bool busy_ = false;
    bool arbScheduled_ = false;
    /**
     * The bus is atomic (busy_ admits one transaction at a time), so the
     * in-flight transaction lives here rather than in its completion
     * event: the winner fills grantMsg_, which is swapped into lastMsg_
     * once the grant is accepted (a declined grant leaves lastMsg_ the
     * previous broadcast); res_ collects the snoop replies.  All three
     * keep their buffers between transactions.
     */
    BusMsg grantMsg_;
    BusMsg lastMsg_;
    SnoopResult res_;
    /** Arbitration scratch: the best-priority requests and their queue
     *  positions. */
    std::vector<ArbRequest> cands_;
    std::vector<std::size_t> candIdx_;
    bool hasLastMsg_ = false;
    Tick lastMsgTick_ = 0;
};

} // namespace csync

#endif // CSYNC_MEM_BUS_HH
