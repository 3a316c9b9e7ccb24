/**
 * @file
 * Host-speed reference.  On a shared host, neighbours on the same cores
 * and caches slow a run by 10-30% for seconds at a time, which no
 * amount of repetition inside one run averages out.  The benchmark
 * therefore runs a fixed reference kernel — its own code, never the
 * simulator's — after every round and states its time-based end-to-end
 * metrics at reference speed: a time t is reported as
 * t x kReferenceNominalMs / (median reference time of the run), a rate
 * r as r x (median reference time) / kReferenceNominalMs.  A slower
 * simulator moves the jobs but not the reference; a busier host moves
 * both.  The kernel is branchy sorting, hashing, tree and allocator
 * work because that is what tracks the simulator's slowdowns on a
 * shared host (pure arithmetic and pointer chasing do not slow down
 * with it).
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

namespace perfbench
{

/** The reference kernel's time on an unloaded 4-core x86-64 VM; the
 *  scale at which normalized metrics read like raw ones. */
constexpr double kReferenceNominalMs = 7.0;

/** Run the reference kernel once; @return its wall milliseconds. */
double referenceKernelMs();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
