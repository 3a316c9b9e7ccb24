/**
 * @file
 * trace_replay: a .ctrace generated from the seed (kernel mix, 8
 * threads) replayed by bitar on the two_switch machine.  The op source
 * is the trace decoder and the replay engine's lock / barrier /
 * dependency stall-and-wake; no synthetic generator, harness or
 * sharding takes part.  One replay of the whole trace is one job.
 */

#include <filesystem>
#include <memory>

#include "probes.hh"
#include "sim_job.hh"
#include "trace/gen.hh"
#include "trace/reader.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace csync;
using namespace csync::harness;

namespace
{

constexpr unsigned kThreads = 8;
constexpr std::uint64_t kEvents = 160'000;

/** Every memory address the trace names, per thread. */
std::vector<std::vector<Addr>>
traceAddrs(const std::string &path)
{
    std::vector<std::vector<Addr>> out;
    trace::TraceReader r;
    std::string err;
    if (!r.open(path, &err))
        return out;
    out.resize(r.numThreads());
    trace::TraceEvent ev;
    for (unsigned t = 0; t < r.numThreads(); ++t) {
        while (r.next(t, &ev, &err) == trace::TraceReader::Status::Event) {
            if (ev.kind == trace::EventKind::Read ||
                ev.kind == trace::EventKind::Write ||
                ev.kind == trace::EventKind::Lock ||
                ev.kind == trace::EventKind::Unlock) {
                out[t].push_back(ev.a);
            }
        }
    }
    return out;
}

} // anonymous namespace

void
runTraceReplay(const RunOptions &opt, Result &res)
{
    const std::string path = opt.workDir + "/replay.ctrace";
    JobSpec job;
    repeatSetup(res, [&] {
        trace::GenParams gen;
        gen.kernel = "mix";
        gen.threads = kThreads;
        gen.events = kEvents;
        gen.seed = opt.seed;
        std::string err;
        {
            Span s(opt.rec, "trace.generate");
            res.checks.check(trace::generateTrace(gen, path, &err),
                             "generate: " + err);
        }
        {
            Span s(opt.rec, "trace.open");
            trace::TraceReader reader;
            res.checks.check(reader.open(path, &err), "open: " + err);
        }
        SweepSpec spec;
        spec.name = "perfbench_replay";
        spec.protocols = {"bitar"};
        spec.traces = {path};
        spec.topologies = {"two_switch"};
        spec.processorCounts = {kThreads};
        job = oneJob(spec);
        std::shared_ptr<trace::TraceReplayEngine> engine;
        auto first = buildSystem(job, engine);
    });

    // What a complete replay must retire, from the reader's own scan.
    trace::TraceReader reader;
    trace::TraceStats tstats;
    std::string err;
    bool valid = reader.open(path, &err) && reader.validate(&err, &tstats);
    res.checks.check(valid, "validate: " + err);

    std::map<std::string, double> first_stats;
    LayerCounts counts;
    double traced_events = 0, events = 0;
    std::size_t depth = 0;
    repeatFor(opt, res, 3, [&](unsigned k, bool traced) {
        SpanRecorder *rec = traced ? opt.rec : nullptr;
        auto t0 = std::chrono::steady_clock::now();
        Span span(rec, "replay.job", -1, k);
        SimRun sr = runSim(job, rec, span.index(), k);
        span.close();
        double ms = secondsSince(t0) * 1e3;

        std::uint64_t retired = 0;
        bool per_thread = sr.threadRetired.size() == reader.numThreads();
        for (unsigned t = 0; per_thread && t < reader.numThreads(); ++t) {
            retired += sr.threadRetired[t];
            per_thread = sr.threadRetired[t] == reader.threadEvents(t);
        }
        res.checks.check(sr.ok && valid && per_thread &&
                             retired == tstats.total &&
                             (first_stats.empty() || sr.stats == first_stats),
                         "replay " + std::to_string(k) + ": " + sr.error +
                             " retired " + std::to_string(retired) + " of " +
                             std::to_string(tstats.total));
        if (first_stats.empty()) {
            first_stats = sr.stats;
            counts.add(sr.stats, double(sr.ticks), sr.procs);
            events = double(sr.events);
            depth = sr.pendingAtStart;
        }
        if (opt.rec)
            (traced ? res.tracedMs : res.untracedMs).push_back(ms);
        if (traced) {
            traced_events += double(sr.events);
            return;
        }
        res.jobMs.push_back(ms);
        res.addRound(1, ms / 1e3);
    });

    Summary s = summarize(res.jobMs);
    res.note("replays_per_s", ratio(res.jobs, res.busySeconds), "1/s");
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
    const SpanRecorder &rec = *opt.rec;
    counts.exportTo(res.layer);
    systemLayerTimes(opt, res);
    res.layer["sim.events"] = events;
    res.layer["sim.events_per_op"] = ratio(events, counts.ops);
    res.layer["sim.ns_per_event"] = ratio(totalNs(rec, "sim.run"),
                                          traced_events);
    res.layer["trace.generate_ms"] = medianUs(rec, "trace.generate") / 1e3;
    res.layer["trace.open_ms"] = medianUs(rec, "trace.open") / 1e3;
    res.layer["trace.events"] = double(tstats.total);
    double bytes = double(std::filesystem::file_size(path));
    res.layer["trace.bytes"] = bytes;

    // The decoder is this workload's op source.
    const unsigned reps = 5;
    double decoded = 0;
    for (unsigned r = 0; r < reps; ++r)
        decoded += double(probeDecode(path, res.checks, opt.rec, -1));
    double decode_ns = totalNs(rec, "trace.decode");
    res.layer["trace.decode_mb_per_s"] = ratio(bytes * reps, decode_ns) * 1e3;
    res.layer["proc.op_source_ns_per_op"] = ratio(decode_ns, decoded);

    auto streams = traceAddrs(path);
    double accesses = 0;
    for (unsigned r = 0; r < 3; ++r) {
        accesses += double(
            probeTags(job.config.cache.geom, streams, opt.rec, -1));
    }
    res.layer["cache.tags_ns_per_access"] =
        ratio(totalNs(rec, "cache.tags"), accesses);
    probeQueue(depth, opt, res);
    probeParallel(job, opt.threads, 3, res);
}

} // namespace perfbench
