#include "fault/fault_injector.hh"

#include <algorithm>

namespace csync
{

FaultInjector::FaultInjector(const FaultPlan &plan,
                             const std::string &stats_prefix,
                             stats::Group *stats_parent)
    : faultsGroup(stats_prefix + "faults", stats_parent),
      injected(&faultsGroup, "injected", "bus faults injected"),
      recovered(&faultsGroup, "recovered",
                "injected faults the system recovered from"),
      naks(&faultsGroup, "naks", "arbitration tenures NAK'd"),
      grantDrops(&faultsGroup, "grantDrops",
                 "busy-wait priority grants dropped"),
      stalls(&faultsGroup, "stalls", "no-transaction bus stalls injected"),
      supplyDelays(&faultsGroup, "supplyDelays",
                   "cache-to-cache supplies delayed"),
      retryGroup(stats_prefix + "retry", stats_parent),
      backoffTicks(&retryGroup, "backoffTicks",
                   "ticks requesters spent in post-NAK backoff"),
      plan_(plan),
      kindMask_(plan.kindMask()),
      rng_(plan.seed)
{
    plan_.validate();
}

Tick
FaultInjector::backoffFor(const BusClient *client)
{
    unsigned &streak = nakStreak_[client];
    Tick backoff = plan_.backoffBase;
    for (unsigned i = 0; i < streak && backoff < plan_.backoffCap; ++i)
        backoff *= 2;
    backoff = std::min(backoff, plan_.backoffCap);
    if (streak < 32)
        ++streak;
    return backoff;
}

Tick
FaultInjector::arbitrationStall()
{
    if (!kindOn(FaultKind::StallBus) || !rng_.chance(plan_.rate))
        return 0;
    // A stall heals by construction once the hold time elapses.
    ++injected;
    ++stalls;
    ++recovered;
    return plan_.stallTicks;
}

std::optional<FaultInjector::Refusal>
FaultInjector::refuseGrant(const BusClient *client, BusPriority pri)
{
    const FaultKind kind = pri == BusPriority::BusyWait
                               ? FaultKind::DropGrant
                               : FaultKind::Nak;
    if (!kindOn(kind) || !rng_.chance(plan_.rate))
        return std::nullopt;

    ++injected;
    if (kind == FaultKind::DropGrant)
        ++grantDrops;
    else
        ++naks;
    outstanding_[client] = true;

    const Tick backoff = backoffFor(client);
    backoffTicks += double(backoff);
    return Refusal{kind, backoff};
}

Tick
FaultInjector::supplyDelay()
{
    if (!kindOn(FaultKind::DelaySupply) || !rng_.chance(plan_.rate))
        return 0;
    // Like a stall, a slow supply heals once the transfer finishes.
    ++injected;
    ++supplyDelays;
    ++recovered;
    return plan_.supplyDelayTicks;
}

void
FaultInjector::turnEnded(const BusClient *client)
{
    auto it = outstanding_.find(client);
    if (it != outstanding_.end() && it->second) {
        it->second = false;
        ++recovered;
    }
    nakStreak_[client] = 0;
}

} // namespace csync
