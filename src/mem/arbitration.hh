/**
 * @file
 * Pluggable bus arbitration policies.  The paper's machine (Section E.4)
 * arbitrates round-robin with a single busy-wait priority line; Nikolov &
 * Lerato's comparison of bus service disciplines shows the choice of
 * discipline materially shifts cache-consistency overheads, so the pick
 * of "who wins the bus next" is factored out of Bus::arbitrate() into a
 * policy object.  The busy-wait priority line stays in the Bus itself:
 * every policy only ever sees the candidates of the best posted priority
 * class, so BusyWait supremacy holds regardless of discipline.
 */

#ifndef CSYNC_MEM_ARBITRATION_HH
#define CSYNC_MEM_ARBITRATION_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "mem/bus_msg.hh"
#include "sim/types.hh"

namespace csync
{

/** One pending bus request as seen by an arbitration policy. */
struct ArbRequest
{
    /** Requesting node id. */
    NodeId node = invalidNode;
    /** Posted priority (all candidates share the best class). */
    BusPriority pri = BusPriority::Normal;
    /** Traffic system of the reference (data vs hard-atom sync). */
    TrafficClass cls = TrafficClass::Data;
    /** Tick at which the request was first posted. */
    Tick posted = 0;
};

/**
 * A bus service discipline: given the pending requests of the winning
 * priority class, pick the one to grant.  Policies may keep history
 * (last winner, class preference) which the bus feeds back through
 * onGrant() exactly when a grant is accepted.
 */
class ArbitrationPolicy
{
  public:
    virtual ~ArbitrationPolicy() = default;

    /** Registry name of this discipline. */
    virtual std::string name() const = 0;

    /**
     * Pick the winner among @p reqs (non-empty, queue order preserved).
     * @param numClients number of attached clients (for modular scans).
     * @return index into @p reqs of the granted request.
     */
    virtual std::size_t pick(const std::vector<ArbRequest> &reqs,
                             unsigned numClients) = 0;

    /** A grant to @p node carrying class @p cls was accepted. */
    virtual void
    onGrant(NodeId node, TrafficClass cls)
    {
        (void)node;
        (void)cls;
    }
};

/** Factory for the shipped arbitration disciplines. */
class ArbitrationRegistry
{
  public:
    /** Instantiate @p name; fatal() on an unknown discipline. */
    static std::unique_ptr<ArbitrationPolicy> make(const std::string &name);

    /** True if @p name is a known discipline. */
    static bool known(const std::string &name);

    /** All shipped discipline names, sorted. */
    static const std::vector<std::string> &names();
};

} // namespace csync

#endif // CSYNC_MEM_ARBITRATION_HH
