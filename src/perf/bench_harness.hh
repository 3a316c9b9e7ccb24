/**
 * @file
 * Measured performance: a steady-clock benchmark harness (warmup,
 * repetitions, median-of-N) plus the schema-versioned JSON document the
 * `csync-bench` CLI emits (`BENCH_*.json`).
 *
 * A document is a record of one host's run, not a gate: numbers from
 * different machines are never compared.  Speed is judged by
 * tools/perf_ab.py, a same-machine A/B of two checkouts that reads the
 * `name` and `ns_per_op` fields of each kernel row.
 */

#ifndef CSYNC_PERF_BENCH_HARNESS_HH
#define CSYNC_PERF_BENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/json.hh"

namespace csync
{
namespace perf
{

/** Current bench document version ("csync_bench"). */
constexpr int kBenchVersion = 1;

/** Repetition knobs. */
struct BenchOptions
{
    /** Untimed warmup repetitions before measurement. */
    unsigned warmup = 1;
    /** Timed repetitions; the reported time is their median. */
    unsigned reps = 5;
};

/** One measured kernel. */
struct KernelResult
{
    std::string name;
    /** @name Workload-kernel echo ("" / 0 for synthetic kernels) */
    /// @{
    std::string protocol;
    std::string workload;
    unsigned procs = 0;
    /// @}

    /** Operations performed by one repetition. */
    std::uint64_t opsPerRep = 0;
    /** Timed repetitions measured. */
    unsigned reps = 0;
    /** Median / fastest / slowest repetition wall time, milliseconds. */
    double medianMs = 0;
    double minMs = 0;
    double maxMs = 0;
    /** Throughput at the median repetition. */
    double opsPerSec = 0;
    /** Nanoseconds per operation at the median repetition. */
    double nsPerOp = 0;
    /** Every timed repetition's wall time, in run order (not
     *  serialized): interleaved kernels compare rep by rep. */
    std::vector<double> repMs;
    /**
     * Deterministic simulator statistics the kernel chose to record
     * (e.g. root-bus transactions of the snoop-filter pair): identical
     * every repetition, serialized only when non-empty, and never
     * gated — they document *why* a kernel's cost moved, not how fast
     * the host ran it.
     */
    std::map<std::string, double> stats;
};

/**
 * Runs kernels under a monotonic (steady) clock.  A kernel is a callable
 * that performs a deterministic amount of work and returns the number of
 * operations it executed; the harness never touches wall-clock time
 * sources that could go backwards.
 */
class BenchHarness
{
  public:
    /** @return the number of operations the repetition executed. */
    using KernelFn = std::function<std::uint64_t()>;

    /**
     * Measure @p fn: run it opts.warmup times untimed, then opts.reps
     * times timed, and report the median repetition.
     */
    KernelResult run(const std::string &name, const KernelFn &fn,
                     const BenchOptions &opts = {});

    /** A named kernel for runInterleaved(). */
    struct Named
    {
        std::string name;
        KernelFn fn;
    };

    /**
     * Measure several kernels rep by rep: warm each up, then run timed
     * rep i of every kernel before rep i+1 of any, so host-speed drift
     * lands on all of them alike.  Results are in @p kernels order.
     */
    std::vector<KernelResult> runInterleaved(const std::vector<Named> &kernels,
                                             const BenchOptions &opts = {});
};

/** Median of @p v (by value: the input is sorted internally); 0 when
 *  empty.  Even-sized inputs average the two middle elements. */
double median(std::vector<double> v);

/** Peak resident set size of this process in kilobytes (0 where the
 *  platform offers no getrusage). */
std::uint64_t peakRssKb();

/**
 * Serialize a bench run as the versioned document:
 *
 *   { "csync_bench": 1, "name": ..., "mode": ..., "warmup": W,
 *     "reps": R, "peak_rss_kb": N, "kernels": [ ... ] }
 */
harness::Json benchToJson(const std::vector<KernelResult> &kernels,
                          const std::string &name,
                          const std::string &mode,
                          const BenchOptions &opts);

} // namespace perf
} // namespace csync

#endif // CSYNC_PERF_BENCH_HARNESS_HH
