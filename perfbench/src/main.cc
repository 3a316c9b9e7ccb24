/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *
 * Runs one workload (protocol_campaign, trace_replay, cluster_sharded,
 * model_check) for S seconds with inputs made from seed N, checks every
 * output, prints a human-readable report and, as its last line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * run is traced and the metrics are the per-layer ones, and the spans
 * are written to DIR/spans-NAME.jsonl.
 *
 * Exit codes: 0 a result was printed (check "correct"); 2 usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perf/bench_harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, printed by every untraced run.  Times and
 *  rates are stated at reference speed; memory as measured. */
const MetricSpec kEndToEnd[] = {
    {"jobs_per_s_at_ref", "1/s"},
    {"job_ms_p50_at_ref", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics, printed by every traced run; a layer the
 *  workload does not exercise reads 0. */
const MetricSpec kPerLayer[] = {
    {"harness.expand_ms", "ms"},
    {"harness.journal_append_us", "us"},
    {"harness.journal_load_ms", "ms"},
    {"harness.finalize_ms", "ms"},
    {"harness.worker_idle_share", "share"},
    {"system.construct_us", "us"},
    {"system.stats_flatten_us", "us"},
    {"system.invariants_us", "us"},
    {"system.replay_construct_us", "us"},
    {"system.replay_step_us", "us"},
    {"system.replay_digest_us", "us"},
    {"sim.events", "count"},
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.eq_ns_per_event", "ns"},
    {"sim.parallel_active", "count"},
    {"sim.parallel_speedup", "x"},
    {"sim_ticks_per_op", "ticks/op"},
    {"bus_txn_per_op", "txn/op"},
    {"cache.hit_ratio", "share"},
    {"cache.misses_per_op", "1/op"},
    {"cache.evictions_per_op", "1/op"},
    {"cache.writebacks_per_op", "1/op"},
    {"cache.tags_ns_per_access", "ns"},
    {"cache.l2_tag_inserts", "count"},
    {"cache.l2_tag_drops", "count"},
    {"coherence.invalidations_per_op", "1/op"},
    {"coherence.updates_per_op", "1/op"},
    {"coherence.cache_supplies_per_op", "1/op"},
    {"coherence.write_hits_to_clean_per_op", "1/op"},
    {"coherence.zero_time_lock_share", "share"},
    {"coherence.lock_retries", "count"},
    {"mem.bus_transactions_per_op", "1/op"},
    {"mem.bus_utilization", "share"},
    {"mem.bus_retries", "count"},
    {"mem.mem_supplies_per_op", "1/op"},
    {"mem.root_transactions", "count"},
    {"mem.snoops_filtered", "count"},
    {"mem.snoops_forwarded", "count"},
    {"proc.op_source_ns_per_op", "ns"},
    {"proc.mem_stall_share", "share"},
    {"trace.generate_ms", "ms"},
    {"trace.open_ms", "ms"},
    {"trace.decode_mb_per_s", "MB/s"},
    {"trace.events", "count"},
    {"trace.bytes", "bytes"},
    {"mc.states_visited", "count"},
    {"mc.states_deduped", "count"},
    {"mc.explore_s", "s"},
    {"bench.tracing_overhead", "share"},
};

struct WorkloadEntry
{
    const char *name;
    void (*run)(const RunOptions &, Result &);
};

const WorkloadEntry kWorkloads[] = {
    {"protocol_campaign", runProtocolCampaign},
    {"trace_replay", runTraceReplay},
    {"cluster_sharded", runClusterSharded},
    {"model_check", runModelCheck},
};

/**
 * Peak resident set of this process image in MB: VmHWM, which exec
 * resets, unlike getrusage's ru_maxrss, which keeps the high-water mark
 * of the process that forked this one.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024;
    }
    return double(csync::perf::peakRssKb()) / 1024;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n"
                 "workloads: protocol_campaign trace_replay "
                 "cluster_sharded model_check\n",
                 argv0);
    return 2;
}

void
printMetric(std::string &json, const char *name, double value,
            const char *unit)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", json.empty() ? "" : ", ", name,
                  std::isfinite(value) ? value : 0.0, unit);
    json += buf;
    std::printf("  %-40s %16.6g %s\n", name, value, unit);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, work_dir = ".bench_build/perfbench/work";
    RunOptions opt;
    int trace = -1;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = *end == '\0';
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            have_seconds = *end == '\0' && opt.seconds > 0;
        } else if (a == "--trace" && (v == "0" || v == "1")) {
            trace = v == "1";
        } else if (a == "--work-dir") {
            work_dir = v;
        } else {
            return usage(argv[0]);
        }
    }
    const WorkloadEntry *entry = nullptr;
    for (const auto &w : kWorkloads) {
        if (workload == w.name)
            entry = &w;
    }
    if (!entry || !have_seed || !have_seconds || trace < 0)
        return usage(argv[0]);

    std::error_code ec;
    std::filesystem::create_directories(work_dir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: %s: %s\n", work_dir.c_str(),
                     ec.message().c_str());
        return 2;
    }
    opt.workDir = work_dir;
    opt.threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    SpanRecorder recorder;
    if (trace)
        opt.rec = &recorder;

    Result res;
    entry->run(opt, res);

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%u\n",
                entry->name, (unsigned long long)opt.seed, opt.seconds,
                trace, opt.threads);
    for (const Note &n : res.notes)
        std::printf("  %-40s %16.6g %s\n", n.name.c_str(), n.value,
                    n.unit.c_str());
    std::printf("  %-40s %16.6g %s\n", "error_rate", res.checks.errorRate(),
                "share");
    for (const auto &f : res.checks.failures())
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());

    std::string metrics;
    if (!trace) {
        // Wall-clock figures as measured, then at reference speed
        // (reference.hh), where the gated ones are taken.
        Summary s = summarize(res.jobMs);
        double rate = ratio(res.jobs, res.busySeconds);
        double ref = csync::perf::median(res.refMs);
        double scale = ratio(kReferenceNominalMs, ref);
        std::printf("  %-40s %16.6g ms (median of %zu, nominal %g)\n",
                    "reference_kernel_ms", ref, res.refMs.size(),
                    kReferenceNominalMs);
        std::printf("  %-40s %16.6g 1/s\n", "jobs_per_s (wall)", rate);
        std::printf("  %-40s %16.6g ms\n", "job_ms_p50 (wall)", s.p50);
        std::printf("  %-40s %16.6g ms\n", "job_ms_p90 (wall)", s.p90);
        std::printf("  %-40s %16.6g ms (%zu jobs, %zu beyond p90)\n",
                    "job_ms_p90_at_ref", s.p90 * scale, s.samples,
                    s.beyondP90);
        double setup_scale = ratio(kReferenceNominalMs,
                                   csync::perf::median(res.setupRefMs));
        std::printf("  %-40s %16.6g s\n", "setup_s (wall)",
                    csync::perf::median(res.setupSeconds));
        double values[] = {ratio(rate, scale), s.p50 * scale,
                           csync::perf::median(res.setupSeconds) *
                               setup_scale,
                           peakRssMb()};
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
            printMetric(metrics, kEndToEnd[i].name, values[i],
                        kEndToEnd[i].unit);
    } else {
        res.layer["bench.tracing_overhead"] =
            ratio(csync::perf::median(res.tracedMs),
                  csync::perf::median(res.untracedMs)) -
            1;
        for (const auto &kv : res.layer) {
            bool known = false;
            for (const auto &m : kPerLayer)
                known = known || kv.first == m.name;
            if (!known) {
                std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                             kv.first.c_str());
                return 2;
            }
        }
        std::printf("  self time by span (ms):\n");
        for (const auto &[name, ns] : selfTimeNs(recorder.spans()))
            std::printf("    %-38s %16.3f\n", name.c_str(), ns / 1e6);
        for (const auto &m : kPerLayer)
            printMetric(metrics, m.name, res.layer[m.name], m.unit);
        std::ofstream spans(work_dir + "/spans-" + entry->name + ".jsonl");
        recorder.write(spans);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                res.checks.failed() == 0 ? "true" : "false",
                (unsigned long long)res.checks.attempted(),
                (unsigned long long)res.checks.failed(), metrics.c_str());
    return 0;
}
