/**
 * @file
 * The benchmark's own arithmetic: percentiles with their sample counts,
 * the correctness tally behind `failed`/`attempted`, and the per-layer
 * counts a simulation leaves in its flattened statistics, reduced to
 * per-op ratios.  Nothing here touches the simulator beyond reading a
 * stats map, so every formula is testable on fixed synthetic inputs.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * The @p p-th percentile (0..100) of @p v by linear interpolation
 * between closest ranks (numpy's default definition); 0 for an empty
 * input.
 */
double percentile(std::vector<double> v, double p);

/** A timing distribution as the benchmark reports it. */
struct Summary
{
    double p50 = 0;
    double p90 = 0;
    /** Samples the percentiles were taken over. */
    std::size_t samples = 0;
    /** Samples strictly above p90 (a tail percentile wants ten). */
    std::size_t beyondP90 = 0;
};

Summary summarize(const std::vector<double> &v);

/** @p num / @p den, or 0 when the denominator is 0. */
double ratio(double num, double den);

/**
 * Correctness tally.  Every unit of work the benchmark finishes — a
 * campaign row, a replay, a sharded run, an exploration, a finalized
 * document — is one attempted check; a unit whose output is wrong is
 * one failed check.  Failures are recorded, never thrown.
 */
class CheckTally
{
  public:
    /** Count one unit; @p ok false records @p what as a failure. */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double
    errorRate() const
    {
        return ratio(double(failed_), double(attempted_));
    }
    /** The first few failure descriptions (for stderr). */
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Sum of every flattened stat whose key ends with @p suffix. */
double sumSuffix(const std::map<std::string, double> &stats,
                 const std::string &suffix);

/**
 * Layer counts of one or more finished simulations, summed across them
 * (so a campaign's ratios are totals over totals, not means of means).
 */
struct LayerCounts
{
    /** Memory references retired (sum of per-cache accesses). */
    double ops = 0;
    double ticks = 0;
    /** ticks x switches and ticks x processors: the denominators of
     *  bus utilization and memory-stall share. */
    double switchTicks = 0;
    double procTicks = 0;

    double hits = 0, misses = 0, evictions = 0, writebacks = 0;
    double invalidations = 0, updates = 0, cacheSupplies = 0;
    double writeHitsToClean = 0, locksAcquired = 0, zeroTimeLocks = 0;
    double lockRetries = 0;
    double switchTxn = 0, rootTxn = 0, busyCycles = 0, busRetries = 0;
    double memSupplies = 0, snoopsFiltered = 0, snoopsForwarded = 0;
    double l2TagInserts = 0, l2TagDrops = 0;
    double memStallCycles = 0;

    /** Add one simulation's flattened stats; @p ticks and @p procs
     *  come from the run itself. */
    void add(const std::map<std::string, double> &stats, double ticks,
             unsigned procs);

    double perOp(double count) const { return ratio(count, ops); }
    /** Local hits per access. */
    double hitRatio() const { return ratio(hits, ops); }
    double ticksPerOp() const { return perOp(ticks); }
    /** Transactions on every switch plus the root, per op. */
    double busTxnPerOp() const { return perOp(switchTxn + rootTxn); }
    double busUtilization() const { return ratio(busyCycles, switchTicks); }
    double memStallShare() const { return ratio(memStallCycles, procTicks); }
    double zeroTimeLockShare() const
    {
        return ratio(zeroTimeLocks, locksAcquired);
    }

    /** Write the cache/coherence/mem/proc per-layer metrics. */
    void exportTo(std::map<std::string, double> &layer) const;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
