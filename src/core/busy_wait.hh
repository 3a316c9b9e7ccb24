/**
 * @file
 * The busy-wait register (Section E.4).  When a cache's lock request is
 * answered "locked", it records the block address here and makes no
 * further bus requests for it.  The register then:
 *
 *  - recognizes the unlock broadcast for its address and joins the next
 *    bus arbitration at the dedicated high priority;
 *  - if it wins, fetches the block with lock privilege and interrupts its
 *    processor (Figure 9);
 *  - if it loses (it snoops another ReadLock for the address), it makes
 *    no attempt to fetch the block again and re-arms for the next unlock
 *    broadcast.
 *
 * The register is its own bus client — dedicated hardware in the paper —
 * so a cache can keep servicing its processor ("work while waiting")
 * while the register waits.
 */

#ifndef CSYNC_CORE_BUSY_WAIT_HH
#define CSYNC_CORE_BUSY_WAIT_HH

#include "mem/bus.hh"
#include "sim/sim_object.hh"

namespace csync
{

class Cache;

/**
 * One busy-wait register attached to a cache.
 */
class BusyWaitRegister : public SimObject, public BusClient
{
  public:
    /**
     * @param name Instance name.
     * @param eq Event queue.
     * @param cache Owning cache.
     * @param id Bus node id of the register (distinct from the cache's).
     * @param bus The bus the owning cache port posts to.
     */
    BusyWaitRegister(std::string name, EventQueue *eq, Cache *cache,
                     NodeId id, Bus *bus);

    /** Record @p block_addr and start waiting. */
    void arm(Addr block_addr);

    /** Stop waiting (lock acquired or abandoned). */
    void disarm();

    bool armed() const { return armed_; }
    Addr blockAddr() const { return blockAddr_; }

    /** The register's part of a quiescent checkpoint. */
    struct Checkpoint
    {
        bool armed = false;
        Addr blockAddr = 0;
    };

    void checkpoint(Checkpoint &out) const { out = {armed_, blockAddr_}; }

    /** Re-arm (or disarm) as checkpointed; the owning System restores
     *  the bus, so no request is posted or withdrawn here. */
    void
    restore(const Checkpoint &cp)
    {
        armed_ = cp.armed;
        blockAddr_ = cp.blockAddr;
    }

    /** @name BusClient interface */
    /// @{
    NodeId nodeId() const override { return id_; }
    bool busGrant(BusMsg &msg) override;
    SnoopReply snoop(const BusMsg &msg) override;
    void busComplete(const BusMsg &msg, const SnoopResult &res) override;
    /// @}

  private:
    Cache *cache_;
    NodeId id_;
    Bus *bus_;
    bool armed_ = false;
    Addr blockAddr_ = 0;
};

} // namespace csync

#endif // CSYNC_CORE_BUSY_WAIT_HH
