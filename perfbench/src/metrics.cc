#include "metrics.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double rank = std::clamp(p, 0.0, 100.0) / 100.0 * double(v.size() - 1);
    std::size_t lo = std::size_t(std::floor(rank));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.p50 = percentile(v, 50);
    s.p90 = percentile(v, 90);
    s.samples = v.size();
    s.beyondP90 = std::size_t(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > s.p90; }));
    return s;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

void
CheckTally::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 8)
        failures_.push_back(what);
}

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // anonymous namespace

double
sumSuffix(const std::map<std::string, double> &stats,
          const std::string &suffix)
{
    double sum = 0;
    for (const auto &[key, value] : stats) {
        if (endsWith(key, suffix))
            sum += value;
    }
    return sum;
}

void
LayerCounts::add(const std::map<std::string, double> &stats, double run_ticks,
                 unsigned procs)
{
    auto sum = [&](const char *suffix) { return sumSuffix(stats, suffix); };

    // Switch-level counters carry the same leaf names as the root bus
    // model; the root is split out so utilization covers switches only.
    double root_busy = sum(".root.busyCycles");
    double root_txn = sum(".root.transactions");
    unsigned switches = 0;
    for (const auto &kv : stats) {
        if (endsWith(kv.first, ".busyCycles") &&
            !endsWith(kv.first, ".root.busyCycles")) {
            ++switches;
        }
    }

    ops += sum(".accesses");
    ticks += run_ticks;
    switchTicks += run_ticks * switches;
    procTicks += run_ticks * procs;

    hits += sum(".hitsLocal");
    misses += sum(".missesBus");
    evictions += sum(".evictions");
    writebacks += sum(".writebacks");
    invalidations += sum(".invalidationsReceived");
    updates += sum(".updatesReceived");
    cacheSupplies += sum(".cacheSupplies");
    writeHitsToClean += sum(".writeHitsToClean");
    locksAcquired += sum(".locksAcquired");
    zeroTimeLocks += sum(".zeroTimeLocks");
    lockRetries += sum(".lockRetries");
    switchTxn += sum(".transactions") - root_txn;
    rootTxn += root_txn;
    busyCycles += sum(".busyCycles") - root_busy;
    busRetries += sum(".retries");
    memSupplies += sum(".memSupplies");
    snoopsFiltered += sum(".snoopsFiltered");
    snoopsForwarded += sum(".snoopsForwarded");
    l2TagInserts += sum(".tagInserts");
    l2TagDrops += sum(".tagDrops");
    memStallCycles += sum(".memStallCycles");
}

void
LayerCounts::exportTo(std::map<std::string, double> &layer) const
{
    layer["sim_ticks_per_op"] = ticksPerOp();
    layer["bus_txn_per_op"] = busTxnPerOp();
    layer["cache.hit_ratio"] = hitRatio();
    layer["cache.misses_per_op"] = perOp(misses);
    layer["cache.evictions_per_op"] = perOp(evictions);
    layer["cache.writebacks_per_op"] = perOp(writebacks);
    layer["cache.l2_tag_inserts"] = l2TagInserts;
    layer["cache.l2_tag_drops"] = l2TagDrops;
    layer["coherence.invalidations_per_op"] = perOp(invalidations);
    layer["coherence.updates_per_op"] = perOp(updates);
    layer["coherence.cache_supplies_per_op"] = perOp(cacheSupplies);
    layer["coherence.write_hits_to_clean_per_op"] = perOp(writeHitsToClean);
    layer["coherence.zero_time_lock_share"] = zeroTimeLockShare();
    layer["coherence.lock_retries"] = lockRetries;
    layer["mem.bus_transactions_per_op"] = perOp(switchTxn);
    layer["mem.bus_utilization"] = busUtilization();
    layer["mem.bus_retries"] = busRetries;
    layer["mem.mem_supplies_per_op"] = perOp(memSupplies);
    layer["mem.root_transactions"] = rootTxn;
    layer["mem.snoops_filtered"] = snoopsFiltered;
    layer["mem.snoops_forwarded"] = snoopsForwarded;
    layer["proc.mem_stall_share"] = memStallShare();
}

} // namespace perfbench
