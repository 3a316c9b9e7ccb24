#include "cache/shared_cache.hh"

#include "cache/cache.hh"
#include "mem/bus.hh"
#include "sim/logging.hh"

namespace csync
{

namespace
{

/** Does a transaction of this type leave the requester holding the
 *  block (so the requester cluster's L2 tag must be inserted)?  Over-
 *  approximate: a refused (locked) fetch inserts a tag for a copy that
 *  never arrived, which only costs forwarding precision, never
 *  correctness. */
bool
fillsBelow(BusReq req)
{
    return transfersBlock(req) || req == BusReq::Upgrade ||
           req == BusReq::WriteNoFetch;
}

/** Does a transaction of this type invalidate every remote copy it
 *  reaches (so forwarded-to inclusive clusters can drop their tag)?
 *  WriteWord belongs: only the write-through-invalidate family issues
 *  it, and its snoop invalidates.  UpdateWord does not — the update
 *  family refreshes remote copies in place. */
bool
invalidatesCopies(BusReq req)
{
    switch (req) {
      case BusReq::ReadExclusive:
      case BusReq::Upgrade:
      case BusReq::ReadLock:
      case BusReq::WriteWord:
      case BusReq::WriteNoFetch:
      case BusReq::IOInvalidate:
        return true;
      default:
        return false;
    }
}

} // anonymous namespace

SharedCache::SharedCache(std::string name, unsigned cluster_idx,
                         const ClusterSpec &spec, std::size_t num_switches,
                         stats::Group *stats_parent)
    : statsGroup(std::move(name), stats_parent),
      tagInserts(&statsGroup, "tagInserts",
                 "block tags installed in the shared level"),
      tagDrops(&statsGroup, "tagDrops",
               "tags dropped by forwarded invalidating transactions"),
      crossingsOut(&statsGroup, "crossingsOut",
                   "member transactions that crossed the root bus"),
      clusterIdx_(cluster_idx),
      spec_(spec),
      tags_(num_switches),
      members_(num_switches)
{
}

void
SharedCache::addMember(std::size_t switch_idx, Cache *cache)
{
    members_.at(switch_idx).push_back(cache);
}

bool
SharedCache::mayHold(std::size_t switch_idx, Addr block) const
{
    for (const Cache *c : members_[switch_idx])
        if (isValid(c->stateOf(block)))
            return true;
    return spec_.inclusive && tags_[switch_idx].count(block) != 0;
}

bool
SharedCache::watcherBelow(std::size_t switch_idx, Addr block) const
{
    for (const Cache *c : members_[switch_idx])
        if (c->busyWaitArmed() && c->busyWaitAddr() == block)
            return true;
    return false;
}

void
SharedCache::noteFill(std::size_t switch_idx, Addr block)
{
    if (!spec_.inclusive)
        return;
    if (tags_[switch_idx].insert(block).second)
        ++tagInserts;
}

void
SharedCache::noteInvalidate(std::size_t switch_idx, Addr block)
{
    if (tags_[switch_idx].erase(block))
        ++tagDrops;
}

ClusterGate::ClusterGate(const std::string &switch_name,
                         std::size_t switch_idx,
                         const TopologyConfig *topo, unsigned num_procs,
                         std::vector<SharedCache *> l2s,
                         RootBusModel *root, Tick crossing_penalty,
                         stats::Group *stats_parent)
    : statsGroup(switch_name + ".filter", stats_parent),
      localTransactions(&statsGroup, "localTransactions",
                        "transactions kept inside this cluster"),
      rootCrossings(&statsGroup, "rootCrossings",
                    "transactions that traversed the root bus"),
      snoopsForwarded(&statsGroup, "snoopsForwarded",
                      "snoop deliveries forwarded into a remote cluster"),
      snoopsFiltered(&statsGroup, "snoopsFiltered",
                     "remote-cluster snoop deliveries suppressed"),
      switchIdx_(switch_idx),
      topo_(topo),
      numProcs_(num_procs),
      l2s_(std::move(l2s)),
      root_(root),
      penalty_(crossing_penalty),
      forward_(l2s_.size(), 0)
{
    sim_assert(!l2s_.empty() && root_ != nullptr && numProcs_ > 0,
               "cluster gate needs shared caches and a root model");
}

unsigned
ClusterGate::clusterOfNode(NodeId id) const
{
    if (id < 0 || unsigned(id) >= 2 * numProcs_)
        return kNoCluster; // I/O devices sit above the clusters.
    unsigned proc = unsigned(id) < numProcs_ ? unsigned(id)
                                             : unsigned(id) - numProcs_;
    return topo_->clusterOfProc(proc, numProcs_);
}

Tick
ClusterGate::beginTransaction(const BusMsg &msg)
{
    reqCluster_ = clusterOfNode(msg.requester);

    bool any_remote = false;
    for (unsigned k = 0; k < unsigned(l2s_.size()); ++k) {
        if (k == reqCluster_) {
            forward_[k] = 1;
            continue;
        }
        const SharedCache *l2 = l2s_[k];
        bool fwd = !l2->filterEnabled() ||
                   l2->mayHold(switchIdx_, msg.blockAddr) ||
                   l2->watcherBelow(switchIdx_, msg.blockAddr);
        forward_[k] = fwd ? 1 : 0;
        any_remote = any_remote || fwd;
    }

    // Shared-level tag maintenance: the requester's cluster retains the
    // block it is acquiring; forwarded-to inclusive clusters lose every
    // copy to an invalidating sweep and can drop theirs.
    if (reqCluster_ != kNoCluster && fillsBelow(msg.req))
        l2s_[reqCluster_]->noteFill(switchIdx_, msg.blockAddr);
    if (invalidatesCopies(msg.req)) {
        for (unsigned k = 0; k < unsigned(l2s_.size()); ++k) {
            if (k != reqCluster_ && forward_[k])
                l2s_[k]->noteInvalidate(switchIdx_, msg.blockAddr);
        }
    }

    // The transaction crosses the root when the requester is homed
    // outside its own cluster, when the broadcast must reach a remote
    // cluster, or when the requester's boundary does no filtering at
    // all (the ablation: everything is broadcast system-wide).
    bool crossing = reqCluster_ != unsigned(switchIdx_) || any_remote ||
                    !l2s_[reqCluster_]->filterEnabled();
    if (!crossing) {
        ++localTransactions;
        return 0;
    }
    ++rootCrossings;
    if (reqCluster_ != kNoCluster)
        l2s_[reqCluster_]->noteCrossing();
    ++root_->transactions;
    root_->busyCycles += double(penalty_);
    return penalty_;
}

bool
ClusterGate::shouldSnoop(const BusClient *client, const BusMsg &msg)
{
    (void)msg;
    NodeId id = client->nodeId();
    // Never filter I/O devices (they sit above the clusters) or
    // busy-wait registers: the busy-wait priority line is a global
    // wire, and an armed register reacts to lock traffic while holding
    // no cached copy, so residency proves nothing about it.
    if (id < 0 || unsigned(id) >= numProcs_)
        return true;
    unsigned k = clusterOfNode(id);
    if (k == reqCluster_ || forward_[k]) {
        if (k != reqCluster_)
            ++snoopsForwarded;
        return true;
    }
    ++snoopsFiltered;
    return false;
}

} // namespace csync
