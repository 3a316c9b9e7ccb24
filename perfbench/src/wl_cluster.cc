/**
 * @file
 * cluster_sharded: one cluster_local job on the clustered_4x2 machine
 * with its snoop filter on, run by the sharded engine.  The only
 * workload where sim/parallel, the SnoopGate and the SharedCache L2
 * tags do real work, and a hit-heavy use of the cache layer.  One
 * sharded run is one job; the serial engine must produce the same
 * stats.
 */

#include <algorithm>
#include <memory>

#include "probes.hh"
#include "sim_job.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace csync;
using namespace csync::harness;

namespace
{

constexpr unsigned kProcs = 8;
constexpr std::uint64_t kOpsPerProc = 40'000;

} // anonymous namespace

void
runClusterSharded(const RunOptions &opt, Result &res)
{
    // Sharding needs at least two sim threads, even on one core.
    const unsigned threads = std::max(2u, opt.threads);
    JobSpec job;
    repeatSetup(res, [&] {
        SweepSpec spec;
        spec.name = "perfbench_cluster";
        spec.protocols = {"bitar"};
        spec.workloads = {"cluster_local"};
        spec.topologies = {"clustered_4x2"};
        spec.processorCounts = {kProcs};
        spec.seeds = {opt.seed};
        spec.opsPerProcessor = kOpsPerProc;
        job = oneJob(spec);
        job.config.simThreads = threads;
        std::shared_ptr<trace::TraceReplayEngine> engine;
        auto first = buildSystem(job, engine);
    });

    std::map<std::string, double> first_stats;
    LayerCounts counts;
    repeatFor(opt, res, 3, [&](unsigned k, bool traced) {
        SpanRecorder *rec = traced ? opt.rec : nullptr;
        auto t0 = std::chrono::steady_clock::now();
        Span span(rec, "cluster.job", -1, k);
        SimRun sr = runSim(job, rec, span.index(), k);
        span.close();
        double ms = secondsSince(t0) * 1e3;

        double root = sumSuffix(sr.stats, ".root.transactions");
        res.checks.check(sr.ok && sr.parallel && root == 0 &&
                             (first_stats.empty() || sr.stats == first_stats),
                         "cluster run " + std::to_string(k) + ": " +
                             sr.error + (sr.parallel ? "" : " ran serially") +
                             " root transactions " + std::to_string(root));
        if (first_stats.empty()) {
            first_stats = sr.stats;
            counts.add(sr.stats, double(sr.ticks), sr.procs);
        }
        if (opt.rec)
            (traced ? res.tracedMs : res.untracedMs).push_back(ms);
        if (traced)
            return;
        res.jobMs.push_back(ms);
        res.addRound(1, ms / 1e3);
    });

    // The serial engine is the reference the sharded rows must match.
    JobSpec serial = job;
    serial.config.simThreads = 1;
    SpanRecorder serial_rec;
    SimRun ref = runSim(serial, &serial_rec, -1, 0);
    res.checks.check(ref.ok && ref.stats == first_stats,
                     "cluster: serial engine stats differ from sharded");

    Summary s = summarize(res.jobMs);
    res.note("runs_per_s", ratio(res.jobs, res.busySeconds), "1/s");
    res.note("sim_mops", ratio(res.jobs * counts.ops, res.busySeconds) / 1e6,
             "Mref/s");
    res.note("job_ms_p50", s.p50, "ms");
    res.note("job_ms_p90", s.p90, "ms");
    res.note("job_samples", double(s.samples), "count");
    res.note("sim_ticks_per_op", counts.ticksPerOp(), "ticks/op");
    res.note("bus_txn_per_op", counts.busTxnPerOp(), "txn/op");
    res.note("cache_hit_ratio", counts.hitRatio(), "share");

    if (!opt.rec)
        return;
    counts.exportTo(res.layer);
    systemLayerTimes(opt, res);
    // Shard queues are private to the engine, so events are counted on
    // the serial run of the same job.
    res.layer["sim.events"] = double(ref.events);
    res.layer["sim.events_per_op"] = ratio(double(ref.events), counts.ops);
    res.layer["sim.ns_per_event"] =
        ratio(totalNs(serial_rec, "sim.run"), double(ref.events));
    probeSources({job}, opt, res);
    probeQueue(ref.pendingAtStart, opt, res);
    probeParallel(job, threads, 3, res);
}

} // namespace perfbench
