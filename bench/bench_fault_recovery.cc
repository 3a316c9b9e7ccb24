/**
 * @file
 * Robustness exhibit: protocol behavior under injected bus faults.
 * Sweeps the fault rate over a mix of protocols on a contended
 * critical-section workload and reports the slowdown relative to the
 * clean run, the number of faults injected/recovered, and the backoff
 * ticks burned — with the checker asserting that coherence and lock
 * mutual exclusion survive every perturbation.  Related service-
 * discipline studies show protocol rankings flip under perturbation;
 * this table is the simulator's version of that experiment.
 */

#include <cstdio>
#include <memory>

#include "harness/workload_factory.hh"
#include "system/system.hh"

using namespace csync;

namespace
{

struct Row
{
    Tick ticks = 0;
    double injected = 0;
    double recovered = 0;
    double backoff = 0;
};

Row
runOne(const char *protocol, double rate)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.numProcessors = 4;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    cfg.fault.rate = rate;
    cfg.fault.seed = 1;
    System sys(cfg);

    for (unsigned i = 0; i < cfg.numProcessors; ++i) {
        harness::WorkloadSlot slot;
        slot.procId = i;
        slot.numProcs = cfg.numProcessors;
        slot.ops = 200;
        slot.seed = 1;
        slot.blockBytes = Addr(cfg.cache.geom.blockWords) * bytesPerWord;
        slot.protocol = protocol;
        std::string err;
        auto w = harness::makeWorkload("critical_section", slot, &err);
        if (!w)
            fatal("%s", err.c_str());
        sys.addProcessor(std::move(w));
    }
    sys.start();

    Row row;
    row.ticks = sys.run(100'000'000);
    if (!sys.allDone() || sys.watchdogTripped())
        fatal("fault run wedged: %s rate=%g: %s", protocol, rate,
              sys.watchdogDiagnostic().c_str());
    if (sys.checker().violations() != 0 || sys.checkStateInvariants())
        fatal("coherence violated under faults: %s rate=%g", protocol,
              rate);
    if (const FaultInjector *fb = sys.bus().faults()) {
        row.injected = fb->injected.value();
        row.recovered = fb->recovered.value();
        row.backoff = fb->backoffTicks.value();
    }
    return row;
}

} // namespace

int
main()
{
    std::printf("Fault injection: recovery cost on a contended "
                "critical-section workload (P=4)\n");
    std::printf("All kinds enabled (nak, stall, delay_supply, "
                "drop_grant); checker clean in every cell.\n\n");
    std::printf("%-16s %-6s %10s %9s %9s %9s %9s\n", "protocol", "rate",
                "ticks", "slowdown", "injected", "recovered", "backoff");

    const char *protocols[] = {"bitar", "illinois", "dragon", "synapse",
                               "berkeley"};
    const double rates[] = {0.0, 0.02, 0.05, 0.2};

    for (const char *proto : protocols) {
        double clean_ticks = 0;
        for (double rate : rates) {
            Row r = runOne(proto, rate);
            if (rate == 0.0)
                clean_ticks = double(r.ticks);
            std::printf("%-16s %-6g %10llu %8.2fx %9.0f %9.0f %9.0f\n",
                        proto, rate, (unsigned long long)r.ticks,
                        clean_ticks ? double(r.ticks) / clean_ticks : 1.0,
                        r.injected, r.recovered, r.backoff);
        }
        std::printf("\n");
    }
    return 0;
}
