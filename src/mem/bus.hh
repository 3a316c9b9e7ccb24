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
 * over normal requests regardless of discipline.
 */

#ifndef CSYNC_MEM_BUS_HH
#define CSYNC_MEM_BUS_HH

#include <memory>
#include <optional>
#include <vector>

#include "mem/arbitration.hh"
#include "mem/bus_msg.hh"
#include "mem/memory.hh"
#include "mem/timing.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace csync
{

class SnoopGate;

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
class Bus : public SimObject
{
  public:
    /**
     * @param carries Mask of trafficClassBit() values this switch is
     *        meant to carry (kAllTraffic for a lone bus).  Advisory:
     *        routing is by address; the mask feeds the misrouted-traffic
     *        counter and topology checks.
     * @param class_stats Register per-traffic-class counters.  Off by
     *        default so single-bus stat dumps are unchanged; a
     *        multi-switch System turns it on for every switch.
     * @param arbitration Service discipline name (mem/arbitration.hh);
     *        the default reproduces the paper's round-robin exactly.
     */
    Bus(std::string name, EventQueue *eq, Memory *memory,
        const BusTiming &timing, stats::Group *stats_parent,
        unsigned carries = kAllTraffic, bool class_stats = false,
        const std::string &arbitration = "round_robin");

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

    /** The service discipline arbitrating this bus. */
    const ArbitrationPolicy &arbitration() const { return *arb_; }

    /** Withdraw a pending request (e.g. busy-wait loser). */
    void cancel(BusClient *client);

    /** True if @p client currently has a request queued. */
    bool requestPending(const BusClient *client) const;

    /**
     * Install the cluster-boundary snoop gate (hierarchical topologies;
     * see mem/snoop_gate.hh).  Null — the default, and the only state
     * flat topologies ever see — broadcasts every transaction to every
     * client exactly as before.  The gate is owned by the System
     * and must outlive the bus's last transaction.
     */
    void setSnoopGate(SnoopGate *gate) { gate_ = gate; }

    /** The installed boundary gate, or null. */
    SnoopGate *snoopGate() const { return gate_; }

    /** True once any transaction has been broadcast (diagnostics). */
    bool hasLastMsg() const { return hasLastMsg_; }

    /** The most recently broadcast message (valid if hasLastMsg()). */
    const BusMsg &lastMsg() const { return lastMsg_; }

    /** Tick at which lastMsg() was broadcast. */
    Tick lastMsgTick() const { return lastMsgTick_; }

    /** Traffic classes this switch is meant to carry. */
    unsigned carries() const { return carries_; }

    /** True if @p cls is among the classes this switch should carry. */
    bool carriesClass(TrafficClass cls) const
    {
        return carries_ & trafficClassBit(cls);
    }

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
     * Transactions whose class is outside this switch's carries() mask
     * (0 unless per-class counters were enabled).  Nonzero means the
     * topology routes references the paper would put on the other
     * system — e.g. data traffic in the sync bus's address range.
     */
    double misroutedCount() const;

  protected:
    /**
     * @name Fault-injection hooks
     * No-ops on the plain bus; FaultyBus overrides them to perturb runs
     * with legal-but-adversarial timing.  They fire at points where the
     * perturbation is pure timing — in particular vetoGrant() is asked
     * *before* busGrant(), so a refused winner has observed no state
     * change and simply retries later.
     */
    /// @{
    /** Ticks to hold the bus idle before picking a winner; 0 = none. */
    virtual Tick preArbitrationStall() { return 0; }

    /**
     * Refuse the arbitration winner's tenure (a NAK).  The hook is
     * responsible for eventually re-posting @p client's request.
     */
    virtual bool vetoGrant(BusClient *client, BusPriority pri,
                           TrafficClass cls)
    {
        (void)client;
        (void)pri;
        (void)cls;
        return false;
    }

    /** Extra ticks a cache-to-cache supply takes; 0 = none. */
    virtual Tick supplyExtraDelay(const BusMsg &msg, const SnoopResult &res)
    {
        (void)msg;
        (void)res;
        return 0;
    }

    /**
     * @p client's turn on the bus ended — either its transaction
     * completed or it declined a grant (its need had evaporated).
     */
    virtual void onTransactionComplete(BusClient *client) { (void)client; }
    /// @}

  private:
    struct Pending
    {
        BusClient *client;
        BusPriority pri;
        TrafficClass cls;
        Tick posted;
    };

    void scheduleArbitration();
    void arbitrate();
    /** Broadcast the parked message (lastMsg_) and schedule its
     *  completion. */
    void execute(BusClient *requester);

    Memory *memory_;
    BusTiming timing_;
    unsigned carries_;
    std::vector<std::unique_ptr<stats::Scalar>> perType_;
    /** Per-traffic-class counters; registered only when class_stats. */
    std::vector<std::unique_ptr<stats::Scalar>> perClass_;
    std::unique_ptr<stats::Scalar> misrouted_;
    std::vector<BusClient *> clients_;
    std::vector<Pending> queue_;
    SnoopGate *gate_ = nullptr;
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
