/**
 * @file
 * One simulation job driven through the public System API — the same
 * steps CampaignRunner::runJobOnce takes (construct, attach each
 * processor's workload, start, run, check, flatten) — with a span
 * around each step, so the traced run can split a job's host time
 * between the system, sim and harness layers.
 */

#ifndef PERFBENCH_SIM_JOB_HH
#define PERFBENCH_SIM_JOB_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/workload_factory.hh"
#include "spans.hh"
#include "system/system.hh"
#include "trace/replay.hh"

namespace perfbench
{

struct SimRun
{
    /** All processors finished with no checker, invariant or watchdog
     *  failure (and no configuration error). */
    bool ok = false;
    std::string error;

    std::uint64_t ticks = 0;
    unsigned procs = 0;
    /** Events executed by the primary queue (every event on the serial
     *  engine; shard 0's only when parallel). */
    std::uint64_t events = 0;
    /** EventQueue::pending() right after System::start(). */
    std::size_t pendingAtStart = 0;
    bool parallel = false;
    std::map<std::string, double> stats;

    /** Trace-replay jobs: events retired per trace thread. */
    std::vector<std::uint64_t> threadRetired;
};

/** The factory slot of processor @p proc of @p job (as the campaign
 *  runner fills it). */
csync::harness::WorkloadSlot slotFor(const csync::harness::JobSpec &job,
                                     unsigned proc);

/**
 * Construct @p job's System, attach each processor's workload and start
 * it: everything before the first simulated op.  @p engine receives a
 * trace-replay job's shared engine and must outlive the System.
 * Throws csync::FatalError on a workload the factory rejects.
 */
std::unique_ptr<csync::System>
buildSystem(const csync::harness::JobSpec &job,
            std::shared_ptr<csync::trace::TraceReplayEngine> &engine);

/**
 * Run @p job.  Spans ("system.construct", "sim.run",
 * "system.stats_flatten", "system.invariants") go to @p rec under
 * @p parent when @p rec is non-null.
 */
SimRun runSim(const csync::harness::JobSpec &job, SpanRecorder *rec,
              long parent, std::uint64_t run);

/** Expand a one-job sweep; fatal to the benchmark if it does not. */
csync::harness::JobSpec oneJob(const csync::harness::SweepSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_SIM_JOB_HH
