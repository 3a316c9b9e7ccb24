/**
 * @file
 * The shared level of a clustered topology: a per-cluster L2 tag
 * directory acting as a snoop filter at the cluster/root boundary,
 * plus the root-bus traffic model joining the clusters.
 *
 * Coherence itself stays flat — every address has exactly one home
 * switch and one snoop domain, so the single-bus coherence argument
 * carries over per switch and no protocol changes.  The hierarchy
 * manifests as *delivery*: the SharedCache aggregates its member L1s'
 * residency so the boundary gate can prove a broadcast would find no
 * copy inside a remote cluster and skip it.  That skip is safe because
 * every protocol's snoop is a no-op without a valid frame; busy-wait
 * registers, which react while holding no copy, are never filtered
 * (see DESIGN.md "Hierarchical topologies").
 *
 * The L2 holds no data.  Inclusive policy keeps a block's tag after
 * the last private L1 drops its copy — the shared level retains the
 * block, so boundary snoops keep forwarding in until an invalidating
 * transaction clears the tag.  Exclusive policy tracks exactly the
 * union of the L1 tags via a live query, so forwarding stops the
 * moment the last private copy leaves.  Both are supersets of the
 * L1s' true residency, which is the filter's correctness condition.
 */

#ifndef CSYNC_CACHE_SHARED_CACHE_HH
#define CSYNC_CACHE_SHARED_CACHE_HH

#include <string>
#include <unordered_set>
#include <vector>

#include "mem/bus_msg.hh"
#include "sim/stats.hh"
#include "system/topology.hh"

namespace csync
{

class BusClient;
class Cache;

/**
 * Stats model of the top-level bus joining the clusters.  The root
 * carries only boundary crossings — requests homed outside their
 * cluster and snoop forwards into remote clusters — and is modeled as
 * a fixed traversal penalty on the home switch rather than a third
 * arbitrated interconnect (the home bus serializes the transaction
 * anyway; see DESIGN.md for the modeling argument).
 */
class RootBusModel
{
  public:
    RootBusModel(const std::string &name, stats::Group *parent)
        : statsGroup(name, parent),
          transactions(&statsGroup, "transactions",
                       "transactions that traversed the root bus"),
          busyCycles(&statsGroup, "busyCycles",
                     "cycles of root-bus traversal charged")
    {
    }

    stats::Group statsGroup;
    stats::Scalar transactions;
    stats::Scalar busyCycles;
};

/**
 * One cluster's shared L2 tag directory.  Residency is tracked per
 * home switch (cluster k's members have one cache port on every
 * switch), so under the sharded engine each switch's tag set is only
 * touched by that switch's transactions — shard-local by construction.
 */
class SharedCache
{
  public:
    /**
     * @param name Stat namespace, e.g. "cluster0.l2".
     * @param cluster_idx This cluster's index (== its switch index).
     * @param spec Policy knobs (inclusive / snoop filtering).
     * @param num_switches Switch count of the whole machine.
     */
    SharedCache(std::string name, unsigned cluster_idx,
                const ClusterSpec &spec, std::size_t num_switches,
                stats::Group *stats_parent);

    /** Register a member processor's cache port on @p switch_idx. */
    void addMember(std::size_t switch_idx, Cache *cache);

    unsigned clusterIdx() const { return clusterIdx_; }
    bool inclusive() const { return spec_.inclusive; }
    bool filterEnabled() const { return spec_.snoopFilter; }

    /**
     * May some member L1 hold a valid copy of @p block (homed on
     * @p switch_idx)?  Exclusive: a live query over the member frame
     * tables, exact.  Inclusive: additionally true while the L2 tag
     * persists.  Never false while a member actually holds the block.
     */
    bool mayHold(std::size_t switch_idx, Addr block) const;

    /** Is a member's busy-wait register armed on @p block?  An armed
     *  watcher holds the boundary open: it reacts to lock traffic
     *  while caching nothing. */
    bool watcherBelow(std::size_t switch_idx, Addr block) const;

    /** A member requested a transaction that leaves it holding the
     *  block: insert the L2 tag (inclusive policy only). */
    void noteFill(std::size_t switch_idx, Addr block);

    /** An invalidating transaction was forwarded into this cluster:
     *  the sweep clears every member copy, so drop the L2 tag. */
    void noteInvalidate(std::size_t switch_idx, Addr block);

    /** A member's transaction crossed the root bus. */
    void noteCrossing() { ++crossingsOut; }

    /** Does the inclusive tag directory hold @p block (homed on
     *  @p switch_idx)?  Always false under the exclusive policy — the
     *  persistent tag is the only L2 state beyond the member L1s, so
     *  this is what architectural digests record. */
    bool
    tagPresent(std::size_t switch_idx, Addr block) const
    {
        return spec_.inclusive && tags_.at(switch_idx).count(block) != 0;
    }

    /** The L2's part of a quiescent checkpoint: its inclusive tags, per
     *  home switch. */
    using Checkpoint = std::vector<std::unordered_set<Addr>>;

    void checkpoint(Checkpoint &out) const { out = tags_; }
    void restore(const Checkpoint &cp) { tags_ = cp; }

    stats::Group statsGroup;
    stats::Scalar tagInserts;
    stats::Scalar tagDrops;
    stats::Scalar crossingsOut;

  private:
    unsigned clusterIdx_;
    ClusterSpec spec_;
    /** Inclusive-policy tags, per home switch. */
    std::vector<std::unordered_set<Addr>> tags_;
    /** Member cache ports, per home switch. */
    std::vector<std::vector<Cache *>> members_;
};

/**
 * The snoop gate of one cluster bus: consulted by that switch's Bus on
 * every transaction to decide per-cluster forwarding, maintain the L2
 * tags, and account root-bus crossings.  One gate per switch; all the
 * state it mutates is keyed by that switch, keeping the sharded engine
 * race-free.  Filtering is only legal because a snoop to a cache
 * holding no valid copy of the block is a no-op in every protocol (see
 * DESIGN.md); the gate skips exactly the deliveries it can prove would
 * not react.
 */
class ClusterGate
{
  public:
    ClusterGate(const std::string &switch_name, std::size_t switch_idx,
                const TopologyConfig *topo, unsigned num_procs,
                std::vector<SharedCache *> l2s, RootBusModel *root,
                Tick crossing_penalty, stats::Group *stats_parent);

    /**
     * A transaction won arbitration and is about to broadcast.  Called
     * once per transaction, before any snoop is delivered: decide which
     * clusters the broadcast must reach and maintain the L2 tags.
     *
     * @return extra cycles the transaction occupies the bus — the
     *         root-bus traversal penalty, or 0 for cluster-local
     *         traffic.
     */
    Tick beginTransaction(const BusMsg &msg);

    /**
     * Whether @p msg must be delivered to @p client's snoop port.
     * Called once per non-requesting client, after beginTransaction()
     * of the same transaction.
     */
    bool shouldSnoop(const BusClient *client, const BusMsg &msg);

    stats::Group statsGroup;
    stats::Scalar localTransactions;
    stats::Scalar rootCrossings;
    stats::Scalar snoopsForwarded;
    stats::Scalar snoopsFiltered;

  private:
    /** Cluster of the node, or kNoCluster for I/O devices. */
    unsigned clusterOfNode(NodeId id) const;

    static constexpr unsigned kNoCluster = unsigned(-1);

    std::size_t switchIdx_;
    const TopologyConfig *topo_;
    unsigned numProcs_;
    std::vector<SharedCache *> l2s_;
    RootBusModel *root_;
    Tick penalty_;
    /** Per-cluster forwarding decision for the in-flight transaction
     *  (valid between beginTransaction and the last shouldSnoop). */
    std::vector<char> forward_;
    unsigned reqCluster_ = kNoCluster;
};

} // namespace csync

#endif // CSYNC_CACHE_SHARED_CACHE_HH
