/**
 * @file
 * Bus-level fault injection.  A Bus built with a FaultPlan owns one
 * FaultInjector and asks it four questions at fixed points of every
 * tenure; the answers perturb the run with legal-but-adversarial timing
 * drawn from a dedicated PRNG:
 *
 *  - Nak:         refuse an arbitration winner's tenure; the requester
 *                 retries after a bounded exponential backoff.
 *  - StallBus:    hold the bus busy for a fixed stall with no
 *                 transaction (a slow board, an I/O burst).
 *  - DelaySupply: stretch a cache-to-cache supply (Figure 4 with a
 *                 slow source cache).
 *  - DropGrant:   refuse a busy-wait register's high-priority grant
 *                 (Section E.4), forcing it to re-arbitrate.
 *
 * Protocols never observe an illegal message; they see only delay and
 * retry, so every coherence/lock invariant the checker enforces must
 * still hold.  Draws come from the plan's own seed, keeping faulty runs
 * exactly as reproducible as clean ones.
 */

#ifndef CSYNC_FAULT_FAULT_INJECTOR_HH
#define CSYNC_FAULT_FAULT_INJECTOR_HH

#include <map>
#include <optional>
#include <string>

#include "fault/fault_plan.hh"
#include "mem/bus_msg.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace csync
{

class BusClient;

/**
 * The fault decisions of one bus.  A clean bus has no injector, so the
 * injector's stat groups exist only on faulted runs and clean runs keep
 * a byte-identical stats tree.  The decisions fire where the perturbation
 * is pure timing — in particular refuseGrant() is asked *before*
 * busGrant(), so a refused winner has observed no state change and
 * simply retries later.
 */
class FaultInjector
{
  public:
    /**
     * @param stats_prefix Prefix for the "faults"/"retry" stat groups —
     *        empty on a single-bus system (keeping historical stat
     *        names), "<switch>." on a multi-switch one so two faulted
     *        switches never collide.
     */
    FaultInjector(const FaultPlan &plan, const std::string &stats_prefix,
                  stats::Group *stats_parent);

    /** A refused grant: which fault refused it, and the ticks until
     *  the bus re-posts the request. */
    struct Refusal
    {
        FaultKind kind;
        Tick backoff;
    };

    /** Ticks to hold the bus idle before picking a winner; 0 = none. */
    Tick arbitrationStall();

    /** Refuse @p client's won tenure (a NAK, or a dropped grant for a
     *  busy-wait request), or nullopt to let the grant proceed. */
    std::optional<Refusal> refuseGrant(const BusClient *client,
                                       BusPriority pri);

    /** Extra ticks a cache-to-cache supply takes; 0 = none. */
    Tick supplyDelay();

    /**
     * @p client's turn on the bus ended — either its transaction
     * completed or it declined a grant (its need had evaporated).
     */
    void turnEnded(const BusClient *client);

    /** @name Statistics */
    /// @{
    stats::Group faultsGroup;
    stats::Scalar injected;
    stats::Scalar recovered;
    stats::Scalar naks;
    stats::Scalar grantDrops;
    stats::Scalar stalls;
    stats::Scalar supplyDelays;
    stats::Group retryGroup;
    stats::Scalar backoffTicks;
    /// @}

  private:
    bool kindOn(FaultKind k) const
    {
        return (kindMask_ & (1u << unsigned(k))) != 0;
    }

    /** Bounded exponential backoff for @p client's next retry. */
    Tick backoffFor(const BusClient *client);

    FaultPlan plan_;
    unsigned kindMask_;
    Random rng_;
    /** Consecutive NAKs/drops since the client last completed. */
    std::map<const BusClient *, unsigned> nakStreak_;
    /** Clients with a faulted, not-yet-recovered transaction. */
    std::map<const BusClient *, bool> outstanding_;
};

} // namespace csync

#endif // CSYNC_FAULT_FAULT_INJECTOR_HH
