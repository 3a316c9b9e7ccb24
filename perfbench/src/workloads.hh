/**
 * @file
 * The benchmark's four workloads.  Each one prepares its inputs from
 * the seed (timed as set-up, several times), then repeats its unit of
 * work — a job — until the run's seconds are spent, checking every
 * job's output.  In the traced run, repetitions alternate between
 * untraced and traced so the tracing overhead can be stated, and the
 * outside-in layer probes run after the loop.
 *
 *   protocol_campaign  job = one campaign row
 *   trace_replay       job = one replay of the generated .ctrace
 *   cluster_sharded    job = one sharded cluster_local run
 *   model_check        job = one exploration pass (bitar + illinois)
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "metrics.hh"
#include "reference.hh"
#include "spans.hh"

namespace perfbench
{

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
    /** Host threads a workload may use (campaign workers, sim
     *  threads). */
    unsigned threads = 4;
    /** Scratch directory for journals and traces. */
    std::string workDir = ".";
    /** Span recorder of the traced run (null when untraced). */
    SpanRecorder *rec = nullptr;
};

/** A metric printed in the human-readable report. */
struct Note
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    /** Host milliseconds per job (untraced jobs only). */
    std::vector<double> jobMs;
    /** Jobs finished by the untraced rounds, and their host seconds. */
    double jobs = 0;
    double busySeconds = 0;
    /** Reference-kernel milliseconds, one per round (reference.hh). */
    std::vector<double> refMs;
    /** Host seconds of each set-up repetition, and the reference
     *  kernel's milliseconds around them. */
    std::vector<double> setupSeconds;
    std::vector<double> setupRefMs;
    /** The workload's own end-to-end figures under their own names
     *  (rows_per_s, sim_mops, ...). */
    std::vector<Note> notes;
    /** Per-layer metrics (traced run). */
    std::map<std::string, double> layer;
    /** Traced vs untraced cost of the same job, for the overhead. */
    std::vector<double> tracedMs, untracedMs;
    CheckTally checks;

    void
    addRound(double round_jobs, double seconds)
    {
        jobs += round_jobs;
        busySeconds += seconds;
    }

    void note(const std::string &name, double value, const std::string &unit)
    {
        notes.push_back(Note{name, value, unit});
    }
};

void runProtocolCampaign(const RunOptions &opt, Result &res);
void runTraceReplay(const RunOptions &opt, Result &res);
void runClusterSharded(const RunOptions &opt, Result &res);
void runModelCheck(const RunOptions &opt, Result &res);

/** Seconds on the steady clock since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Repeat @p round(k, traced) until @p seconds have passed and at least
 * @p min_rounds ran, timing the reference kernel after each round.
 * Untraced runs never trace; a traced run alternates untraced (even k)
 * and traced (odd k) rounds.
 */
template <typename F>
void
repeatFor(const RunOptions &opt, Result &res, unsigned min_rounds,
          F &&round)
{
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned k = 0; k < min_rounds || secondsSince(t0) < opt.seconds;
         ++k) {
        round(k, opt.rec != nullptr && k % 2 == 1);
        res.refMs.push_back(referenceKernelMs());
    }
}

/**
 * Time @p setup — everything a workload does before its first simulated
 * op — a fixed number of times, so setup_s is a median even when one
 * set-up takes microseconds.  The reference kernel runs just before and
 * after, which also brings the core up to speed first.
 */
template <typename F>
void
repeatSetup(Result &res, F &&setup)
{
    for (int i = 0; i < 5; ++i)
        res.setupRefMs.push_back(referenceKernelMs());
    for (unsigned r = 0; r < 25; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        setup();
        res.setupSeconds.push_back(secondsSince(t0));
    }
    for (int i = 0; i < 5; ++i)
        res.setupRefMs.push_back(referenceKernelMs());
}

/** Median of the durations (ns) of spans named @p name, in µs. */
double medianUs(const SpanRecorder &rec, const std::string &name);

/** Sum of the durations (ns) of spans named @p name. */
double totalNs(const SpanRecorder &rec, const std::string &name);

/**
 * Serial-vs-sharded probe: run @p job @p reps times on the serial
 * engine and at @p threads sim threads; sets sim.parallel_active and
 * sim.parallel_speedup (median serial / median sharded System::run
 * time).  Both engines must produce identical stats.
 */
void probeParallel(const csync::harness::JobSpec &job, unsigned threads,
                   unsigned reps, Result &res);

/**
 * Op-source and tag-array probes over @p jobs: sets
 * proc.op_source_ns_per_op and cache.tags_ns_per_access.
 */
void probeSources(const std::vector<csync::harness::JobSpec> &jobs,
                  const RunOptions &opt, Result &res);

/** Event-queue probe at @p depth: sets sim.eq_ns_per_event. */
void probeQueue(std::size_t depth, const RunOptions &opt, Result &res);

/**
 * Per-layer metrics every simulating workload reports from its traced
 * jobs' spans: system.construct_us, system.stats_flatten_us and
 * system.invariants_us.
 */
void systemLayerTimes(const RunOptions &opt, Result &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
