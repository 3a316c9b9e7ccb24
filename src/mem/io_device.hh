/**
 * @file
 * I/O processor model (Section E.2 / Feature 11).  Three operations:
 *
 *  - input: the I/O processor writes a block to memory while invalidating
 *    it in all caches (a one-cycle IOInvalidate broadcast rides the bus;
 *    the data goes to memory directly);
 *  - page-out: fetch the block with write privilege (invalidating all
 *    copies) and deliver the latest version;
 *  - non-paging output: a special read that tells the source cache not to
 *    give up source status.
 */

#ifndef CSYNC_MEM_IO_DEVICE_HH
#define CSYNC_MEM_IO_DEVICE_HH

#include <deque>
#include <functional>
#include <vector>

#include "mem/bus.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "system/checker.hh"

namespace csync
{

/**
 * A DMA-style I/O processor on the broadcast bus.
 */
class IODevice : public SimObject, public BusClient
{
  public:
    /** Callback delivering the data read (empty for input). */
    using IOCallback = std::function<void(const std::vector<Word> &)>;

    IODevice(std::string name, EventQueue *eq, NodeId id,
             Bus *bus, Checker *checker,
             stats::Group *stats_parent);

    /** Write @p data to @p block_addr, invalidating all cached copies. */
    void input(Addr block_addr, std::vector<Word> data, IOCallback cb);

    /** Page the block out: fetch the latest version with write
     *  privilege (invalidates all copies). */
    void pageOut(Addr block_addr, IOCallback cb);

    /** Non-paging output: read the latest version; sources keep their
     *  status. */
    void output(Addr block_addr, IOCallback cb);

    /** True if no operation is pending. */
    bool idle() const { return pending_.empty() && !inFlight_; }

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
    stats::Scalar inputs;
    stats::Scalar pageOuts;
    stats::Scalar outputs;
    stats::Scalar lockedRetries;
    /// @}

  private:
    struct IOOp
    {
        BusReq req;
        Addr blockAddr;
        std::vector<Word> data;
        IOCallback cb;
    };

    void post(IOOp op);

    NodeId id_;
    Bus *bus_;
    Checker *checker_;
    std::deque<IOOp> pending_;
    bool inFlight_ = false;
};

} // namespace csync

#endif // CSYNC_MEM_IO_DEVICE_HH
