/**
 * @file
 * Whole-system configuration: protocol choice, processor count, cache
 * geometry, bus timing, and feature toggles.
 */

#ifndef CSYNC_SYSTEM_CONFIG_HH
#define CSYNC_SYSTEM_CONFIG_HH

#include <string>

#include "cache/cache.hh"
#include "coherence/adaptive.hh"
#include "fault/fault_plan.hh"
#include "mem/timing.hh"
#include "system/topology.hh"

namespace csync
{

/** Configuration for one simulated system. */
struct SystemConfig
{
    /** Hard sanity limits enforced by validate(). */
    static constexpr unsigned kMaxProcessors = 256;
    static constexpr unsigned kMaxBlockWords = 1024;
    static constexpr unsigned kMaxSimThreads = 64;

    /** Instance name (statistics prefix). */
    std::string name = "system";
    /** Registered protocol name ("bitar", "goodman", ...). */
    std::string protocol = "bitar";
    /** Bus service discipline for every switch ("round_robin", "fcfs",
     *  "alternating_priority"); a SwitchSpec may override per switch. */
    std::string arbitration = "round_robin";
    /** Saturating-counter tuning for the adaptive_* protocols (ignored
     *  by every other protocol). */
    AdaptiveTuning adaptive;
    /** Number of processor/cache pairs. */
    unsigned numProcessors = 4;
    /** Per-cache configuration (geometry, hit latency, directory). */
    CacheConfig cache;
    /** Bus/memory timing. */
    BusTiming timing;
    /** Attach an I/O device. */
    bool withIODevice = false;
    /** Take each cache's directory organization from the protocol's
     *  Feature 3 entry instead of cache.directory. */
    bool directoryFromProtocol = true;
    /** Attach the value-level coherence checker. */
    bool enableChecker = true;
    /** Interconnect topology (default: the paper's single bus). */
    TopologyConfig topology;
    /** Fault-injection schedule + watchdog window (default: no faults,
     *  no stats-tree changes).  fault.target selects which switch's
     *  bus injects faults ("" = every switch). */
    FaultPlan fault;
    /**
     * Worker threads for the sharded parallel engine.  1 (the default)
     * is exactly today's serial engine — not a one-thread parallel run.
     * Values > 1 enable domain sharding when the configuration is
     * statically partitionable (see planDomainPartition()); otherwise
     * the run silently falls back to the serial path, so results are
     * identical at any thread count.
     */
    unsigned simThreads = 1;

    /** Sanity-check the configuration (fatal on nonsense). */
    void validate() const;
};

} // namespace csync

#endif // CSYNC_SYSTEM_CONFIG_HH
