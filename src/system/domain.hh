/**
 * @file
 * Static domain-partition analysis for the sharded parallel engine.
 *
 * A System may run its interconnect domains (one switch plus the
 * memory, caches, and processors behind it) on separate event queues
 * only when nothing couples the domains at simulation time.  Processor
 * ports, bus snoops, and memory all stay strictly within one switch by
 * construction; the only cross-domain channel is a processor whose
 * workload touches addresses routed to more than one switch.  So the
 * partition is decidable statically: if every processor's declared
 * address footprint (Workload::footprint()) is confined to a single
 * switch, the domains never exchange events and each shard's execution
 * is exactly the serial run's projection onto that domain — which is
 * why parallel stats are byte-identical to serial ones.
 *
 * So the shards are disjoint: no event ever crosses a shard boundary
 * and there is no channel between shards.  System::run() therefore runs
 * each domain's event loop to its own end on a worker thread and meets
 * the others only at the join.  A feature that couples domains must
 * first change this proof, and add the channel it needs along with it.
 *
 * Anything the analysis cannot prove falls back to the serial engine;
 * whySerial records the first reason, for diagnostics and tests.
 */

#ifndef CSYNC_SYSTEM_DOMAIN_HH
#define CSYNC_SYSTEM_DOMAIN_HH

#include <string>
#include <vector>

#include "proc/workload.hh"
#include "system/config.hh"
#include "system/topology.hh"

namespace csync
{

/** The outcome of the partition analysis for one System. */
struct DomainPartition
{
    /** True when the run may be sharded. */
    bool active = false;
    /** First reason the analysis refused ("" when active). */
    std::string whySerial;
    /** Home switch of each processor (valid only when active). */
    std::vector<unsigned> procHome;
    /** Shard count == switch count (valid only when active). */
    unsigned domains = 0;
};

/**
 * Decide whether the configuration is domain-partitionable.
 *
 * @param cfg The system configuration (thread count, topology, fault
 *            plan, I/O flag).
 * @param map The flattened address routing of @p cfg's topology.
 * @param workloads One entry per attached processor, in order.
 */
DomainPartition planDomainPartition(
    const SystemConfig &cfg, const AddressMap &map,
    const std::vector<const Workload *> &workloads);

} // namespace csync

#endif // CSYNC_SYSTEM_DOMAIN_HH
