/**
 * @file
 * csync-bench — the simulator's kernel runner.  Runs named workload
 * kernels (full simulations through the campaign engine) under the
 * steady-clock bench harness and writes a schema-versioned BENCH
 * document:
 *
 *   csync-bench --quick -o BENCH_sim_core.json
 *
 * The document is a trajectory record, not a gate: speed is judged by
 * tools/perf_ab.py, which runs these kernels for a base and a head
 * checkout in interleaved pairs on one machine.
 *
 * Exit codes: 0 success; 1 failed kernel or missed --min-speedup; 2
 * usage or I/O error.
 */

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/campaign_io.hh"
#include "harness/cli_args.hh"
#include "harness/sweep.hh"
#include "perf/bench_harness.hh"

using namespace csync;
using namespace csync::harness;
using namespace csync::perf;

namespace
{

/** One named bench kernel: a protocol/workload pair (or a captured
 *  trace to replay). */
struct KernelSpec
{
    std::string name;
    std::string protocol;
    std::string workload;
    unsigned procs = 8;
    std::string topology = "single_bus";
    std::string trace = ""; // .ctrace path; replaces the workload
    /** Event-engine threads (1 = the serial engine). */
    unsigned simThreads = 1;
    /** Flattened campaign stats to record on the kernel's document row
     *  (deterministic, so any repetition's values serve). */
    std::vector<std::string> recordStats = {};
};

/** The committed golden trace the replay kernels stream. */
std::string
goldenTrace()
{
    return std::string(CSYNC_GOLDEN_DIR) + "/mix_100k.ctrace";
}

/** "tests/golden/mix_100k.ctrace" -> "trace:mix_100k" (doc tag). */
std::string
traceTag(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = stem.rfind(".ctrace");
    if (dot != std::string::npos)
        stem.resize(dot);
    return "trace:" + stem;
}

/**
 * The standard kernel set.  The kernels cover the write-once scheme
 * against the classic invalidate and update protocols (and the adaptive
 * hybrid, whose per-block counters ride the hot path) on the contended
 * workloads, plus the Figure 11 two-interconnect Aquarius topology
 * (the multi-switch hot path).  The replay kernels stream the committed
 * ~100k-event golden trace through the trace front-end on both topology
 * presets, so the long-horizon replay path (chunk streaming +
 * stall/wake multiplexing) is on the performance trajectory too.  The
 * domain_local pair runs the same
 * statically-partitionable two-switch job on the serial engine and on
 * the sharded parallel engine (@p mtThreads workers), so the parallel
 * speedup is a measured, gateable quantity (--min-speedup).  The
 * cluster_local trio runs the hierarchical machine: the filtered and
 * unfiltered clustered_4x2 kernels record root-bus transactions on
 * their document rows (the snoop filter's traffic reduction is a
 * committed number, not a claim), and the _mt variant shards the four
 * clusters across the parallel engine: the second pair --min-speedup
 * gates.
 */
std::vector<KernelSpec>
standardKernels(unsigned mtThreads)
{
    return {
        {"bitar_random_sharing", "bitar", "random_sharing", 8},
        {"bitar_critical_section", "bitar", "critical_section", 8},
        {"bitar_producer_consumer", "bitar", "producer_consumer", 8},
        {"goodman_random_sharing", "goodman", "random_sharing", 8},
        {"illinois_random_sharing", "illinois", "random_sharing", 8},
        {"dragon_random_sharing", "dragon", "random_sharing", 8},
        {"adaptive_du_random_sharing", "adaptive_du", "random_sharing",
         8},
        {"bitar_service_queue_two_switch", "bitar", "service_queue", 8,
         "two_switch"},
        {"bitar_replay_mix100k", "bitar", "", 8, "single_bus",
         goldenTrace()},
        {"bitar_replay_mix100k_two_switch", "bitar", "", 8, "two_switch",
         goldenTrace()},
        {"bitar_domain_local_two_switch", "bitar", "domain_local", 8,
         "two_switch"},
        {"bitar_domain_local_two_switch_mt", "bitar", "domain_local", 8,
         "two_switch", "", mtThreads},
        {"bitar_cluster_local_4x2", "bitar", "cluster_local", 8,
         "clustered_4x2", "", 1, {"system.root.transactions"}},
        {"bitar_cluster_local_4x2_nofilter", "bitar", "cluster_local", 8,
         "clustered_4x2_nofilter", "", 1, {"system.root.transactions"}},
        {"bitar_cluster_local_4x2_mt", "bitar", "cluster_local", 8,
         "clustered_4x2", "", mtThreads},
    };
}

/** Upper bound on --reps/--warmup: the harness keeps every timing. */
constexpr unsigned kMaxReps = 100000;

/** The serial/parallel kernel pairs the --min-speedup gate compares:
 *  two domains on two_switch, and four clusters on clustered_4x2. */
const char *const kSpeedupPairs[][2] = {
    {"bitar_domain_local_two_switch", "bitar_domain_local_two_switch_mt"},
    {"bitar_cluster_local_4x2", "bitar_cluster_local_4x2_mt"},
};

/** Build the single-job grid for a simulator kernel. */
bool
makeJob(const KernelSpec &k, std::uint64_t ops, JobSpec *out,
        std::string *err)
{
    SweepSpec spec;
    spec.name = k.name;
    spec.protocols = {k.protocol};
    if (k.trace.empty())
        spec.workloads = {k.workload};
    else
        spec.traces = {k.trace};
    spec.topologies = {k.topology};
    spec.processorCounts = {k.procs};
    spec.opsPerProcessor = ops;
    std::vector<JobSpec> grid;
    if (!spec.expand(&grid, err))
        return false;
    if (grid.size() != 1) {
        *err = "kernel '" + k.name + "' expanded to " +
               std::to_string(grid.size()) + " jobs, expected 1";
        return false;
    }
    *out = grid[0];
    // Execution knob, applied after expansion so it never reaches job
    // names or document rows.
    out->config.simThreads = k.simThreads;
    return true;
}

int
cliError(const std::string &msg)
{
    std::fprintf(stderr, "csync-bench: %s\n", msg.c_str());
    return 2;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [options]    run the bench kernels\n"
        "       %s --list       list kernels\n"
        "\n"
        "options:\n"
        "  --quick              fast mode: 4000 ops/proc, 3 reps\n"
        "  --ops N              memory ops per processor (default "
        "20000)\n"
        "  --reps N             timed repetitions, median reported "
        "(default 5)\n"
        "  --warmup N           untimed warmup repetitions (default 1)\n"
        "  --kernels A,B,...    run only the named kernels\n"
        "  --sim-threads N      worker threads for the *_mt parallel "
        "kernel (default 4)\n"
        "  --min-speedup R      fail unless each *_mt kernel of the "
        "domain_local and\n"
        "                       cluster_local pairs runs >= R x its "
        "serial twin\n"
        "  -o, --out FILE       bench JSON output (default "
        "BENCH_sim_core.json)\n"
        "  -q, --quiet          no per-kernel progress on stderr\n",
        argv0, argv0);
    return 2;
}

/**
 * Run the selected kernels.  @return false (with *err) on a bad kernel
 * name; a kernel whose simulation fails sets *failed instead, so the
 * caller exits 1 rather than 2.
 */
bool
runKernels(const std::vector<std::string> &only, std::uint64_t ops,
           const BenchOptions &opts, bool quiet, unsigned mtThreads,
           std::vector<KernelResult> *out, bool *failed,
           std::string *err)
{
    std::vector<KernelSpec> kernels;
    for (const auto &k : standardKernels(mtThreads)) {
        if (!only.empty()) {
            bool wanted = false;
            for (const auto &name : only)
                wanted = wanted || name == k.name;
            if (!wanted)
                continue;
        }
        kernels.push_back(k);
    }
    if (kernels.size() < (only.empty() ? 1u : only.size())) {
        *err = "unknown kernel in --kernels; try --list";
        return false;
    }

    // Per-kernel job and outcome; the timed closures point into it.
    struct Prepared
    {
        JobSpec job;
        std::string err;
        std::map<std::string, double> recorded;
    };
    std::vector<Prepared> prepared(kernels.size());
    std::vector<BenchHarness::Named> fns;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        Prepared &p = prepared[i];
        if (!makeJob(kernels[i], ops, &p.job, err))
            return false;
        const KernelSpec &k = kernels[i];
        auto fn = [&p, &k]() -> std::uint64_t {
            JobResult row = CampaignRunner::runJob(p.job);
            if (!row.ok())
                p.err = row.status + ": " + row.error;
            for (const auto &stat : k.recordStats) {
                auto it = row.stats.find(stat);
                if (it != row.stats.end())
                    p.recorded[stat] = it->second;
            }
            return row.memOps;
        };
        fns.push_back({k.name, fn});
    }

    // Each kSpeedupPairs pair whose kernels both run is timed rep by
    // rep, interleaved, so host drift lands on both halves of the
    // ratio; every other kernel is timed on its own.
    auto indexOf = [&](const char *name) {
        for (std::size_t i = 0; i < kernels.size(); ++i)
            if (kernels[i].name == name)
                return i;
        return kernels.size();
    };
    std::vector<std::vector<std::size_t>> batches;
    std::vector<bool> batched(kernels.size(), false);
    for (const auto &[serial_name, parallel_name] : kSpeedupPairs) {
        std::size_t s = indexOf(serial_name), p = indexOf(parallel_name);
        if (s < kernels.size() && p < kernels.size()) {
            batches.push_back({s, p});
            batched[s] = batched[p] = true;
        }
    }
    for (std::size_t i = 0; i < kernels.size(); ++i)
        if (!batched[i])
            batches.push_back({i});

    BenchHarness harness;
    std::vector<KernelResult> results(kernels.size());
    for (const auto &batch : batches) {
        std::vector<BenchHarness::Named> group;
        for (std::size_t i : batch)
            group.push_back(fns[i]);
        std::vector<KernelResult> timed =
            harness.runInterleaved(group, opts);
        for (std::size_t j = 0; j < batch.size(); ++j)
            results[batch[j]] = std::move(timed[j]);
    }

    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelSpec &k = kernels[i];
        KernelResult &r = results[i];
        r.stats = std::move(prepared[i].recorded);
        if (!prepared[i].err.empty()) {
            std::fprintf(stderr, "csync-bench: kernel '%s' failed (%s)\n",
                         k.name.c_str(), prepared[i].err.c_str());
            *failed = true;
            continue;
        }
        r.protocol = k.protocol;
        r.workload = k.trace.empty() ? k.workload : traceTag(k.trace);
        r.procs = k.procs;
        if (!quiet) {
            std::fprintf(stderr, "%-28s %9.2f ms median  %12.3g ops/s  "
                         "%8.1f ns/op\n", r.name.c_str(), r.medianMs,
                         r.opsPerSec, r.nsPerOp);
        }
        out->push_back(std::move(r));
    }
    return true;
}

int
doList(unsigned mtThreads)
{
    for (const auto &k : standardKernels(mtThreads)) {
        std::string wl = k.trace.empty() ? k.workload : traceTag(k.trace);
        std::printf("%-32s %s / %s, %u procs%s%s%s\n", k.name.c_str(),
                    k.protocol.c_str(), wl.c_str(), k.procs,
                    k.topology == "single_bus" ? "" : ", ",
                    k.topology == "single_bus" ? "" : k.topology.c_str(),
                    k.simThreads > 1 ? " (parallel engine)" : "");
    }
    return 0;
}

/**
 * The --min-speedup gate: parallel-vs-serial ops/sec ratio on each
 * kSpeedupPairs pair, the median of the per-rep ratios of the pair's
 * interleaved reps, every one of which must reach @p minRatio.  All
 * four kernels must be in @p results (run without a --kernels filter,
 * or with all of them named).
 */
int
checkSpeedup(const std::vector<KernelResult> &results, double minRatio,
             unsigned mtThreads)
{
    auto find = [&](const char *name) -> const KernelResult * {
        for (const auto &r : results)
            if (r.name == name)
                return &r;
        return nullptr;
    };
    int rc = 0;
    for (const auto &[serial_name, parallel_name] : kSpeedupPairs) {
        const KernelResult *serial = find(serial_name);
        const KernelResult *parallel = find(parallel_name);
        if (!serial || !parallel) {
            std::fprintf(stderr, "csync-bench: --min-speedup needs both "
                         "'%s' and '%s' in the run\n", serial_name,
                         parallel_name);
            return 2;
        }
        if (serial->opsPerSec <= 0) {
            std::fprintf(stderr, "csync-bench: --min-speedup: '%s' "
                         "reported no throughput\n", serial_name);
            return 1;
        }
        // The pair ran interleaved: judge the median of the rep-by-rep
        // throughput ratios, each taken under the same host conditions.
        std::vector<double> ratios;
        for (std::size_t i = 0; i < serial->repMs.size() &&
                                i < parallel->repMs.size(); ++i) {
            double serial_rate = double(serial->opsPerRep) /
                                 serial->repMs[i];
            double parallel_rate = double(parallel->opsPerRep) /
                                   parallel->repMs[i];
            ratios.push_back(parallel_rate / serial_rate);
        }
        double ratio = median(ratios);
        std::printf("speedup %s/%s = %.2fx at %u threads (median of %zu "
                    "interleaved reps, min %.2fx) -> %s\n",
                    parallel_name, serial_name, ratio, mtThreads,
                    ratios.size(), minRatio,
                    ratio >= minRatio ? "OK" : "FAIL");
        if (ratio < minRatio)
            rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_sim_core.json";
    std::vector<std::string> only;
    bool list_mode = false, quiet = false, quick = false;
    std::uint64_t ops = 20000;
    unsigned sim_threads = 4;
    double min_speedup = 0; // 0 = gate off
    bool have_ops = false, have_reps = false;
    BenchOptions opts;
    std::string err;

    auto next_arg = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "csync-bench: %s needs a value\n",
                         flag);
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else if (a == "--list") {
            list_mode = true;
        } else if (a == "--quick") {
            quick = true;
        } else if (a == "--ops") {
            if (!(v = next_arg(i, "--ops")))
                return 2;
            if (!parseUnsignedArg(a, v, &ops, &err, 1))
                return cliError(err);
            have_ops = true;
        } else if (a == "--reps") {
            if (!(v = next_arg(i, "--reps")))
                return 2;
            if (!parseUnsignedArg(a, v, &opts.reps, &err, 1, kMaxReps))
                return cliError(err);
            have_reps = true;
        } else if (a == "--warmup") {
            if (!(v = next_arg(i, "--warmup")))
                return 2;
            if (!parseUnsignedArg(a, v, &opts.warmup, &err, 0, kMaxReps))
                return cliError(err);
        } else if (a == "--kernels") {
            if (!(v = next_arg(i, "--kernels")))
                return 2;
            if (!splitList(v, &only))
                return cliError("--kernels: empty list");
        } else if (a == "--sim-threads") {
            if (!(v = next_arg(i, "--sim-threads")))
                return 2;
            if (!parseUnsignedArg(a, v, &sim_threads, &err, 1,
                                  SystemConfig::kMaxSimThreads))
                return cliError(err);
        } else if (a == "--min-speedup") {
            if (!(v = next_arg(i, "--min-speedup")))
                return 2;
            if (!parseDoubleArg(a, v, &min_speedup, &err))
                return cliError(err);
            if (min_speedup <= 0)
                return cliError("--min-speedup must be > 0");
        } else if (a == "-o" || a == "--out") {
            if (!(v = next_arg(i, "--out")))
                return 2;
            out_path = v;
        } else if (a == "-q" || a == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "csync-bench: unknown option %s\n",
                         a.c_str());
            return usage(argv[0]);
        }
    }

    if (list_mode)
        return doList(sim_threads);

    if (quick) {
        if (!have_ops)
            ops = 4000;
        if (!have_reps)
            opts.reps = 3;
    }

    std::vector<KernelResult> results;
    bool failed = false;
    if (!runKernels(only, ops, opts, quiet, sim_threads, &results,
                    &failed, &err))
        return cliError(err);

    Json doc = benchToJson(results, "sim_core",
                           quick ? "quick" : "full", opts);
    if (!writeFile(out_path, doc.dump(0) + "\n", &err))
        return cliError(err);
    if (!quiet)
        std::fprintf(stderr, "csync-bench: wrote %s (%zu kernels)\n",
                     out_path.c_str(), results.size());

    int speedup_rc = 0;
    if (min_speedup > 0) {
        speedup_rc = checkSpeedup(results, min_speedup, sim_threads);
        if (speedup_rc == 2)
            return 2;
    }
    return (failed || speedup_rc != 0) ? 1 : 0;
}
