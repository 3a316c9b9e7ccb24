/**
 * @file
 * Outside-in per-layer probes.  Each one calls a single layer's public
 * functions in a loop, fed the inputs of the workload being measured,
 * inside a span, so the traced run can state that layer's cost per
 * unit of work without instrumenting the simulator:
 *
 *   proc   Workload::next for every processor of a job, answered by a
 *          flat functional memory (span "proc.op_source"), minus the
 *          cost of that memory alone ("proc.op_source_baseline")
 *   cache  CacheBlocks find / victim / install over the address stream
 *          the op source produced, on the job's geometry ("cache.tags")
 *   sim    EventQueue schedule + run at the depth a started System
 *          holds ("sim.eq")
 *   trace  TraceReader::next over every thread of a .ctrace
 *          ("trace.decode")
 *   system TraceReplayer construct / step / digest on random prefixes
 *          over the model checker's alphabet ("system.replay_*")
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_blocks.hh"
#include "harness/sweep.hh"
#include "metrics.hh"
#include "system/replay.hh"
#include "spans.hh"

namespace perfbench
{

/** What driving a job's op sources produced. */
struct SourceDrive
{
    /** Operations the sources emitted. */
    std::uint64_t ops = 0;
    /** Each processor's address stream, in issue order. */
    std::vector<std::vector<csync::Addr>> addrs;
};

/**
 * Drive every processor's workload of @p job round-robin to completion
 * (at most @p max_ops operations) against a functional memory.
 */
SourceDrive driveSources(const csync::harness::JobSpec &job,
                         std::uint64_t max_ops, SpanRecorder *rec,
                         long parent);

/** Feed each stream to its own tag array; @return accesses made. */
std::uint64_t probeTags(const csync::CacheGeometry &geom,
                        const std::vector<std::vector<csync::Addr>> &streams,
                        SpanRecorder *rec, long parent);

/** Hold-model event-queue run at @p depth; @return events executed. */
std::uint64_t probeEventQueue(std::size_t depth, std::uint64_t events,
                              std::uint64_t seed, SpanRecorder *rec,
                              long parent);

/** Decode every event of the trace at @p path; @return events read
 *  (0 on a read error, which is also recorded in @p checks). */
std::uint64_t probeDecode(const std::string &path, CheckTally &checks,
                          SpanRecorder *rec, long parent);

/** The model checker's per-state machine shape for @p protocol with
 *  @p caches caches (mc/explorer.cc's shapeFor, non-adaptive). */
csync::DirectedTrace explorerShape(const std::string &protocol,
                                   unsigned caches);

/**
 * Replay @p count random prefixes of at most @p depth ops over the
 * explorer's alphabet for @p protocol; every prefix must replay clean.
 */
void probeReplay(const std::string &protocol, unsigned caches,
                 unsigned blocks, unsigned depth, unsigned count,
                 std::uint64_t seed, CheckTally &checks, SpanRecorder *rec,
                 long parent);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
