#include "perf/bench_harness.hh"
#include "probes.hh"
#include "sim_job.hh"
#include "workloads.hh"

namespace perfbench
{

using csync::harness::JobSpec;

double
medianUs(const SpanRecorder &rec, const std::string &name)
{
    return csync::perf::median(rec.durations(name)) / 1e3;
}

double
totalNs(const SpanRecorder &rec, const std::string &name)
{
    double sum = 0;
    for (double d : rec.durations(name))
        sum += d;
    return sum;
}

void
probeParallel(const JobSpec &job, unsigned threads, unsigned reps,
              Result &res)
{
    JobSpec serial = job, sharded = job;
    serial.config.simThreads = 1;
    sharded.config.simThreads = threads;
    SpanRecorder serial_rec, sharded_rec;
    SimRun a, b;
    for (unsigned r = 0; r < reps; ++r) {
        a = runSim(serial, &serial_rec, -1, r);
        b = runSim(sharded, &sharded_rec, -1, r);
    }
    res.checks.check(a.ok && b.ok && a.stats == b.stats,
                     "parallel probe: " + job.name +
                         " differs between the serial and sharded engines");
    res.layer["sim.parallel_active"] = b.parallel ? 1 : 0;
    res.layer["sim.parallel_speedup"] = ratio(
        medianUs(serial_rec, "sim.run"), medianUs(sharded_rec, "sim.run"));
}

void
probeSources(const std::vector<JobSpec> &jobs, const RunOptions &opt,
             Result &res)
{
    const unsigned reps = 3;
    double ops = 0, accesses = 0;
    for (unsigned r = 0; r < reps; ++r) {
        for (const JobSpec &job : jobs) {
            std::uint64_t max_ops =
                4 * job.ops * job.config.numProcessors;
            SourceDrive d = driveSources(job, max_ops, opt.rec, -1);
            res.checks.check(d.ops > 0, "op source probe: " + job.name +
                                            " produced no ops");
            ops += double(d.ops);
            accesses += double(
                probeTags(job.config.cache.geom, d.addrs, opt.rec, -1));
        }
    }
    const SpanRecorder &rec = *opt.rec;
    res.layer["proc.op_source_ns_per_op"] =
        ratio(totalNs(rec, "proc.op_source") -
                  totalNs(rec, "proc.op_source_baseline"),
              ops);
    res.layer["cache.tags_ns_per_access"] =
        ratio(totalNs(rec, "cache.tags"), accesses);
}

void
probeQueue(std::size_t depth, const RunOptions &opt, Result &res)
{
    const std::uint64_t events = 2'000'000;
    std::uint64_t ran = probeEventQueue(depth, events, opt.seed, opt.rec, -1);
    res.layer["sim.eq_ns_per_event"] =
        ratio(totalNs(*opt.rec, "sim.eq"), double(ran));
}

void
systemLayerTimes(const RunOptions &opt, Result &res)
{
    res.layer["system.construct_us"] = medianUs(*opt.rec, "system.construct");
    res.layer["system.stats_flatten_us"] =
        medianUs(*opt.rec, "system.stats_flatten");
    res.layer["system.invariants_us"] = medianUs(*opt.rec, "system.invariants");
}

} // namespace perfbench
