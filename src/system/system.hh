/**
 * @file
 * The whole simulated machine: N processors, each with one private
 * snooping cache port per interconnect switch, in front of per-switch
 * partitions of main memory (Figure 11), plus the value checker and a
 * structural invariant scanner.  The default topology is the paper's
 * baseline — a single full-broadcast bus — and the two_switch preset is
 * the Aquarius synchronization-bus / data-switch split of Section E.2.
 */

#ifndef CSYNC_SYSTEM_SYSTEM_HH
#define CSYNC_SYSTEM_SYSTEM_HH

#include <atomic>
#include <memory>
#include <ostream>
#include <vector>

#include "cache/cache.hh"
#include "cache/shared_cache.hh"
#include "fault/watchdog.hh"
#include "mem/bus.hh"
#include "mem/io_device.hh"
#include "mem/memory.hh"
#include "proc/processor.hh"
#include "system/checker.hh"
#include "system/config.hh"
#include "system/domain.hh"

namespace csync
{

/**
 * One simulated shared-memory multiprocessor.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    const SystemConfig &config() const { return cfg_; }
    EventQueue &eventq() { return eq_; }
    Tick now() const { return eq_.now(); }
    Bus &bus() { return *ports_.front().bus; }
    Memory &memory() { return *ports_.front().memory; }
    Checker &checker() { return checker_; }
    stats::Group &rootStats() { return root_; }
    IODevice *io() { return io_.get(); }

    /** Number of interconnect switches (1 on the default topology). */
    unsigned numInterconnects() const { return unsigned(ports_.size()); }

    /** Switch @p k, in topology order (port 0 is bus()). */
    Bus &bus(unsigned k) { return *ports_.at(k).bus; }

    /** The memory partition behind switch @p k. */
    Memory &memory(unsigned k) { return *ports_.at(k).memory; }

    /** The address -> switch routing of this machine. */
    const AddressMap &addressMap() const { return map_; }

    /**
     * Total cache ports: numProcessors() x numInterconnects(), in
     * port-major flat order (identical to the processor order on the
     * single-bus topology).
     */
    unsigned numCaches() const
    {
        return unsigned(ports_.size() * ports_.front().caches.size());
    }

    /** Flat cache access: port i / P serves processor i % P. */
    Cache &
    cache(unsigned i)
    {
        unsigned p = unsigned(ports_.front().caches.size());
        return *ports_.at(i / p).caches.at(i % p);
    }

    /** Processor @p proc's cache port on switch @p k. */
    Cache &cache(unsigned proc, unsigned k)
    {
        return *ports_.at(k).caches.at(proc);
    }

    /** Shared L2s, one per cluster (empty on flat topologies). */
    unsigned numSharedCaches() const { return unsigned(l2s_.size()); }

    /** Cluster @p c's shared L2 tag directory. */
    SharedCache &sharedCache(unsigned c) { return *l2s_.at(c); }

    /** The root-bus traffic model, or null on flat topologies. */
    RootBusModel *rootBus() { return rootBus_.get(); }

    /**
     * Attach a processor running @p workload to the next free cache.
     * @return the processor's index.
     */
    unsigned addProcessor(std::unique_ptr<Workload> workload,
                          bool work_while_waiting = false);

    unsigned numProcessors() const { return unsigned(procs_.size()); }
    Processor &processor(unsigned i) { return *procs_.at(i); }

    /**
     * Start every attached processor.  When simThreads > 1 this first
     * runs the domain-partition analysis and, if it proves the machine
     * partitionable, moves each interconnect domain (and its homed
     * processors) onto its own event queue for the sharded engine.
     */
    void start();

    /** True when run() will use the sharded parallel engine. */
    bool parallelActive() const { return partition_.active; }

    /** Why the parallel engine declined ("" when it did not). */
    const std::string &serialReason() const
    {
        return partition_.whySerial;
    }

    /** The partition analysis result (tests). */
    const DomainPartition &partition() const { return partition_; }

    /** True when every processor's workload has finished. */
    bool allDone() const;

    /**
     * Run until all processors finish, the event queue drains, the
     * forward-progress watchdog trips, or @p max_ticks is reached.
     * @return the final simulated time.
     */
    Tick run(Tick max_ticks = 50'000'000)
    {
        return run(max_ticks, nullptr);
    }

    /**
     * As run(), plus an external abort flag checked between event
     * batches: when @p abort reads true the run stops at the next
     * batch boundary (the campaign harness's wall-clock watchdog).
     * Null behaves exactly like plain run().
     */
    Tick run(Tick max_ticks, const std::atomic<bool> *abort);

    /** Total operations retired across all processors. */
    double totalRetiredOps() const;

    /** True if run() was aborted by the forward-progress watchdog. */
    bool watchdogTripped() const { return watchdog_.tripped(); }

    /** The watchdog's abort diagnostic ("" if it never tripped). */
    const std::string &watchdogDiagnostic() const
    {
        return watchdog_.diagnostic();
    }

    /** The forward-progress watchdog itself (tests). */
    ProgressWatchdog &watchdog() { return watchdog_; }

    /**
     * Render a no-progress diagnostic: @p why plus the last bus
     * message, each cache's state of the implicated block, busy-wait
     * register occupancy, and per-processor retired counts.
     */
    std::string progressDiagnostic(const std::string &why) const;

    /** Dump every statistic to @p os. */
    void dumpStats(std::ostream &os);

    /** Dump every statistic to @p os as a JSON document. */
    void dumpStatsJson(std::ostream &os);

    /**
     * Scan all caches for structural coherence invariants:
     * at most one writable copy, at most one source, at most one lock
     * holder per block; all valid copies identical; clean data equal to
     * memory when no dirty copy exists.
     *
     * @param why Optional first-violation description.
     * @return number of violations found.
     */
    unsigned checkStateInvariants(std::string *why = nullptr);

  private:
    /** One interconnect switch: its memory partition, its bus, and one
     *  cache port per processor. */
    struct Port
    {
        std::unique_ptr<Memory> memory;
        std::unique_ptr<Bus> bus;
        std::vector<std::unique_ptr<Cache>> caches;
    };

    /** Build the shared level of a clustered topology: per-cluster L2
     *  directories, per-switch boundary gates, the root-bus model. */
    void buildHierarchy();

    /** Run the partition analysis and, if it passes, rebind each
     *  domain's objects onto a private shard queue (start()-time). */
    void planShards();

    /** The sharded engine behind run() when the partition is active. */
    Tick runParallel(Tick max_ticks, const std::atomic<bool> *abort);

    /** Shard @p k's event queue (shard 0 is the primary eq_). */
    EventQueue &shardQueue(unsigned k)
    {
        return k == 0 ? eq_ : *shardEqs_.at(k - 1);
    }

    SystemConfig cfg_;
    EventQueue eq_;
    stats::Group root_;
    Checker checker_;
    ProgressWatchdog watchdog_;
    AddressMap map_;
    /** Per-switch boundary snoop gates (clustered topologies; the
     *  buses hold them raw, so they must outlive the ports). */
    std::vector<std::unique_ptr<ClusterGate>> gates_;
    /** Per-cluster shared L2 directories (clustered topologies). */
    std::vector<std::unique_ptr<SharedCache>> l2s_;
    /** Root-bus traffic model (clustered topologies). */
    std::unique_ptr<RootBusModel> rootBus_;
    std::vector<Port> ports_;
    std::unique_ptr<IODevice> io_;
    std::vector<std::unique_ptr<Processor>> procs_;

    /** @name Sharded-engine state (empty/inactive on serial runs) */
    /// @{
    DomainPartition partition_;
    /** Queues for shards 1..K-1; shard 0 keeps eq_ so single-domain
     *  state (and all serial runs) is untouched. */
    std::vector<std::unique_ptr<EventQueue>> shardEqs_;
    /** Processors homed on each shard. */
    std::vector<std::vector<Processor *>> shardProcs_;
    /// @}
};

} // namespace csync

#endif // CSYNC_SYSTEM_SYSTEM_HH
