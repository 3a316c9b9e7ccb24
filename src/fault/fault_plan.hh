/**
 * @file
 * Deterministic, seed-driven fault scheduling for robustness campaigns.
 * A FaultPlan names which bus-level faults may fire, how often, and with
 * what timing parameters; a bus's FaultInjector draws from a dedicated
 * PRNG seeded by the plan, so a faulty run is exactly as reproducible as
 * a clean one.
 *
 * Every fault is *legal-but-adversarial timing*: a NAK'd arbitration, a
 * stalled bus, a slow cache-to-cache supply, a dropped busy-wait grant.
 * Protocols never see an illegal message — the paper's own recovery
 * mechanics (Synapse's flush-then-refetch retry, the busy-wait register's
 * re-arbitration, lock-waiter states) are what a plan exercises.
 */

#ifndef CSYNC_FAULT_FAULT_PLAN_HH
#define CSYNC_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace csync
{

namespace harness
{
class Json;
} // namespace harness

/** Kinds of injectable bus-level faults. */
enum class FaultKind : unsigned
{
    /** Refuse an arbitration winner's tenure; the requester retries
     *  after a bounded exponential backoff (Table 1 note 1's NAK). */
    Nak = 0,
    /** Hold the bus busy with no transaction for a fixed stall. */
    StallBus,
    /** Delay a source cache's cache-to-cache supply (Figure 4 under a
     *  slow source). */
    DelaySupply,
    /** Drop a busy-wait register's high-priority grant (Section E.4);
     *  the register re-arbitrates after backoff. */
    DropGrant,
    NumKinds
};

/** Canonical spec name of a fault kind ("nak", "stall", ...). */
const char *faultKindName(FaultKind kind);

/** Parse a fault kind name. @return false if @p name is unknown. */
bool faultKindFromName(const std::string &name, FaultKind *out);

/** Comma-separated list of every valid kind name (error messages). */
std::string faultKindList();

/**
 * One system's fault-injection schedule plus its forward-progress
 * watchdog window.  Default-constructed plans inject nothing and leave
 * the statistics tree untouched, so clean runs are byte-identical to
 * builds without the fault layer.
 */
struct FaultPlan
{
    /** Per-opportunity injection probability in [0, 1]; 0 disables. */
    double rate = 0.0;
    /** Seed of the dedicated fault PRNG (independent of workload
     *  seeds, so the same reference stream can be perturbed). */
    std::uint64_t seed = 1;
    /** Enabled kind names; empty means every kind. */
    std::vector<std::string> kinds;

    /** Switch the faults attach to, by topology switch name ("sync_bus");
     *  empty means every switch of the system injects.  Validated
     *  against the topology by SystemConfig::validate(). */
    std::string target;

    /** Bus hold time of one injected stall, ticks. */
    Tick stallTicks = 16;
    /** Extra latency of one delayed cache-to-cache supply, ticks. */
    Tick supplyDelayTicks = 8;
    /** First retry backoff after a NAK/dropped grant, ticks. */
    Tick backoffBase = 2;
    /** Backoff ceiling, ticks (bounded exponential doubling). */
    Tick backoffCap = 256;

    /** Forward-progress window: if no processor retires an operation
     *  for this many ticks the run is aborted with a diagnostic
     *  instead of spinning to the tick budget.  0 disables. */
    Tick watchdogWindow = 200'000;

    /** True if any fault can fire. */
    bool enabled() const { return rate > 0.0; }

    /** Bitmask over FaultKind of the kinds this plan may inject.
     *  Unknown names are ignored (validate() rejects them first). */
    unsigned kindMask() const;

    /** Sanity-check the plan (fatal on nonsense, like SystemConfig). */
    void validate() const;

    /**
     * Check the plan without dying: @return false with *err set on the
     * first problem (the sweep expander's up-front gate).
     */
    bool check(std::string *err) const;

    /**
     * Parse per-plan constants from a JSON object (see EXPERIMENTS.md
     * "Fault campaigns").  @return false with *err set on bad input.
     */
    static bool fromJson(const harness::Json &doc, FaultPlan *out,
                         std::string *err);

    /** Echo the plan as JSON (campaign manifest). */
    harness::Json toJson() const;
};

} // namespace csync

#endif // CSYNC_FAULT_FAULT_PLAN_HH
