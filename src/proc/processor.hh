/**
 * @file
 * A simple blocking in-order processor: it asks its workload for the next
 * memory operation, spends the think time, issues the op to its cache,
 * and repeats when the result arrives.  With work-while-waiting enabled
 * it keeps executing "ready section" ops while a lock request is pending
 * in the busy-wait register (Section E.4).
 */

#ifndef CSYNC_PROC_PROCESSOR_HH
#define CSYNC_PROC_PROCESSOR_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "proc/workload.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "system/topology.hh"

namespace csync
{

/**
 * One processor driving one private cache port per interconnect switch
 * (a single cache on the default single-bus topology).  Each operation
 * is routed to the port whose switch backs its address.
 */
class Processor : public SimObject
{
  public:
    Processor(std::string name, EventQueue *eq, NodeId id, Cache *cache,
              std::unique_ptr<Workload> workload,
              stats::Group *stats_parent);

    Processor(std::string name, EventQueue *eq, NodeId id,
              std::vector<Cache *> caches, const AddressMap *map,
              std::unique_ptr<Workload> workload,
              stats::Group *stats_parent);

    /** Begin executing the workload. */
    void start();

    /** True once the workload has finished and no op is in flight. */
    bool done() const { return finished_ && !opInFlight_; }

    /** Enable work-while-waiting (installs the lock-interrupt handler). */
    void enableWorkWhileWaiting();

    /**
     * Resume a processor whose workload returned Stalled (fired through
     * the workload's wake hook).  Coalesces repeated wakes and defers
     * through the event queue, so it is safe to call from any point of
     * the simulation — including from inside another processor's
     * workload callback.
     */
    void wake();

    /**
     * Pin this processor to interconnect domain @p domain (a sharded
     * parallel run).  From then on, issuing an operation routed to any
     * other domain is a simulator bug — the partition analysis promised
     * the workload's footprint stays home, and a violation would be a
     * cross-thread access, so it panics rather than corrupting state.
     */
    void setHomeDomain(unsigned domain) { homeDomain_ = int(domain); }

    NodeId id() const { return id_; }
    /** The first (on single-bus: the only) cache port. */
    Cache &cache() { return *caches_.front(); }
    /** The cache port that serves @p addr on this topology. */
    Cache &portFor(Addr addr);
    Workload &workload() { return *workload_; }

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar opsCompleted;
    stats::Scalar memStallCycles;
    stats::Scalar thinkCycles;
    stats::Scalar readySectionOps;
    /// @}

  private:
    void scheduleNext();
    void issue(const MemOp &op);
    void onResult(const AccessResult &r);
    void onLockInterrupt(const MemOp &op, const AccessResult &r);

    NodeId id_;
    std::vector<Cache *> caches_;
    const AddressMap *map_;
    std::unique_ptr<Workload> workload_;
    bool started_ = false;
    bool finished_ = false;
    bool opInFlight_ = false;
    /** The operation in flight (valid while opInFlight_): held here so
     *  the cache's completion callback captures only `this` and stays
     *  within std::function's inline buffer. */
    MemOp curOp_;
    bool issuePending_ = false;
    bool waitingForLock_ = false;
    bool workWhileWaiting_ = false;
    bool wakePending_ = false;
    Tick issueTick_ = 0;
    /** Pinned interconnect domain (-1 = unpinned, the serial engine). */
    int homeDomain_ = -1;
};

} // namespace csync

#endif // CSYNC_PROC_PROCESSOR_HH
