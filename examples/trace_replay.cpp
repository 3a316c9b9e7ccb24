/**
 * @file
 * Trace replay: drive the simulator from fixed per-processor operation
 * lists (TraceWorkload), the programmatic form of a directed trace.
 * Processor 0 initializes two words, then updates a third under a
 * cache lock; processor 1 reads the shared data and contends for the
 * same lock.
 *
 * Usage: trace_replay [protocol]   (default bitar)
 *
 * Captured traces from files replay through the `.ctrace` front-end
 * instead: `csync-trace gen` writes one and `csync-sweep --trace`
 * replays it.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "proc/workloads/trace.hh"
#include "system/system.hh"

using namespace csync;

namespace
{

TraceEntry
op(OpType type, Addr addr, Word value = 0, Tick think = 0)
{
    return {MemOp{type, addr, value, false}, think};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string protocol = argc > 1 ? argv[1] : "bitar";
    std::vector<std::vector<TraceEntry>> traces = {
        // Processor 0: initialize, lock, update, unlock, read back.
        {op(OpType::Write, 0x1000, 100), op(OpType::Write, 0x1008, 200),
         op(OpType::LockRead, 0x2000), op(OpType::Write, 0x2008, 1),
         op(OpType::UnlockWrite, 0x2000, 0),
         op(OpType::Read, 0x1000, 0, 10)},
        // Processor 1: read the shared data, contend for the lock.
        {op(OpType::Read, 0x1000, 0, 5), op(OpType::Read, 0x1008),
         op(OpType::LockRead, 0x2000), op(OpType::Read, 0x2008),
         op(OpType::UnlockWrite, 0x2000, 0)},
    };
    std::printf("running the built-in two-processor demo trace\n");

    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.numProcessors = unsigned(traces.size());
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    System sys(cfg);
    for (auto &t : traces)
        sys.addProcessor(std::make_unique<TraceWorkload>(std::move(t)));

    sys.start();
    Tick end = sys.run();

    std::printf("\nprotocol            : %s\n", protocol.c_str());
    std::printf("simulated cycles    : %llu\n", (unsigned long long)end);
    std::printf("bus transactions    : %.0f\n",
                sys.bus().transactions.value());
    std::printf("checker violations  : %llu\n",
                (unsigned long long)sys.checker().violations());
    for (unsigned i = 0; i < sys.numProcessors(); ++i) {
        auto &wl =
            static_cast<TraceWorkload &>(sys.processor(i).workload());
        std::printf("processor %u results:", i);
        for (const auto &r : wl.results())
            std::printf(" %llu", (unsigned long long)r.value);
        std::printf("\n");
    }
    std::printf("\nfull statistics:\n");
    sys.dumpStats(std::cout);
    return sys.allDone() && sys.checker().violations() == 0 ? 0 : 1;
}
