#include "sim_job.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "harness/workload_factory.hh"
#include "sim/logging.hh"
#include "sim/stats_json.hh"

namespace perfbench
{

using namespace csync;

harness::WorkloadSlot
slotFor(const harness::JobSpec &job, unsigned proc)
{
    harness::WorkloadSlot slot;
    slot.procId = proc;
    slot.numProcs = job.config.numProcessors;
    slot.ops = job.ops;
    slot.seed = job.seed;
    slot.blockBytes = job.config.cache.geom.blockBytes();
    slot.protocol = job.config.protocol;
    slot.numClusters = job.config.topology.clustered()
                           ? job.config.topology.numClusters()
                           : 1;
    return slot;
}

std::unique_ptr<System>
buildSystem(const harness::JobSpec &job,
            std::shared_ptr<trace::TraceReplayEngine> &engine)
{
    auto sys = std::make_unique<System>(job.config);
    for (unsigned i = 0; i < job.config.numProcessors; ++i) {
        harness::WorkloadSlot slot = slotFor(job, i);
        slot.traceEngine = &engine;
        std::string err;
        auto w = harness::makeWorkload(job.workload, slot, &err);
        if (!w)
            throw FatalError(err);
        sys->addProcessor(std::move(w));
    }
    sys->start();
    return sys;
}

SimRun
runSim(const harness::JobSpec &job, SpanRecorder *rec, long parent,
       std::uint64_t run)
{
    SimRun out;
    out.procs = job.config.numProcessors;
    ScopedThreadTrace quiet(nullptr);
    ScopedFatalThrow capture;
    try {
        // Declared before the System: its processors own workloads that
        // point into the engine.
        std::shared_ptr<trace::TraceReplayEngine> engine;
        Span construct(rec, "system.construct", parent, run);
        std::unique_ptr<System> owned = buildSystem(job, engine);
        System &sys = *owned;
        construct.close();
        out.parallel = sys.parallelActive();
        out.pendingAtStart = sys.eventq().pending();

        {
            Span s(rec, "sim.run", parent, run);
            out.ticks = sys.run(job.maxTicks);
        }
        out.events = sys.eventq().executed();

        unsigned violations = 0;
        {
            Span s(rec, "system.invariants", parent, run);
            violations = sys.checker().violations() +
                         sys.checkStateInvariants();
        }
        {
            Span s(rec, "system.stats_flatten", parent, run);
            stats::flatten(sys.rootStats(), out.stats);
        }
        if (engine) {
            for (unsigned t = 0; t < engine->numThreads(); ++t)
                out.threadRetired.push_back(engine->retiredEvents(t));
        }
        out.ok = violations == 0 && sys.allDone() && !sys.watchdogTripped();
        if (!out.ok) {
            out.error = csprintf("%u violations, %s, watchdog %s", violations,
                                 sys.allDone() ? "all done" : "unfinished",
                                 sys.watchdogTripped() ? "tripped" : "quiet");
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

harness::JobSpec
oneJob(const harness::SweepSpec &spec)
{
    std::vector<harness::JobSpec> grid;
    std::string err;
    if (!spec.expand(&grid, &err) || grid.size() != 1) {
        std::fprintf(stderr, "perfbench: %s: %s\n", spec.name.c_str(),
                     err.empty() ? "expected exactly one job" : err.c_str());
        std::exit(2);
    }
    return grid[0];
}

} // namespace perfbench
