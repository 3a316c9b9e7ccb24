#include "perf/bench_harness.hh"

#include <algorithm>
#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace csync
{
namespace perf
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    if (v.size() % 2)
        return v[mid];
    return (v[mid - 1] + v[mid]) / 2.0;
}

std::uint64_t
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return std::uint64_t(ru.ru_maxrss) / 1024; // bytes on Darwin
#else
    return std::uint64_t(ru.ru_maxrss); // kilobytes on Linux
#endif
#else
    return 0;
#endif
}

KernelResult
BenchHarness::run(const std::string &name, const KernelFn &fn,
                  const BenchOptions &opts)
{
    return runInterleaved({{name, fn}}, opts).front();
}

std::vector<KernelResult>
BenchHarness::runInterleaved(const std::vector<Named> &kernels,
                             const BenchOptions &opts)
{
    using clock = std::chrono::steady_clock;

    std::vector<KernelResult> out(kernels.size());
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        out[k].name = kernels[k].name;
        out[k].reps = opts.reps ? opts.reps : 1;
        out[k].repMs.reserve(out[k].reps);
        for (unsigned i = 0; i < opts.warmup; ++i)
            out[k].opsPerRep = kernels[k].fn();
    }
    const unsigned reps = opts.reps ? opts.reps : 1;
    for (unsigned i = 0; i < reps; ++i) {
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            auto t0 = clock::now();
            out[k].opsPerRep = kernels[k].fn();
            auto t1 = clock::now();
            out[k].repMs.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
    }

    for (KernelResult &r : out) {
        r.medianMs = median(r.repMs);
        r.minMs = *std::min_element(r.repMs.begin(), r.repMs.end());
        r.maxMs = *std::max_element(r.repMs.begin(), r.repMs.end());
        if (r.medianMs > 0 && r.opsPerRep > 0) {
            r.opsPerSec = double(r.opsPerRep) / (r.medianMs / 1e3);
            r.nsPerOp = r.medianMs * 1e6 / double(r.opsPerRep);
        }
    }
    return out;
}

harness::Json
benchToJson(const std::vector<KernelResult> &kernels,
            const std::string &name, const std::string &mode,
            const BenchOptions &opts)
{
    using harness::Json;
    Json doc = Json::object();
    doc.set("csync_bench", kBenchVersion);
    doc.set("name", name);
    doc.set("mode", mode);
    doc.set("warmup", opts.warmup);
    doc.set("reps", opts.reps);
    doc.set("peak_rss_kb", peakRssKb());
    Json arr = Json::array();
    for (const auto &k : kernels) {
        Json row = Json::object();
        row.set("name", k.name);
        if (!k.protocol.empty())
            row.set("protocol", k.protocol);
        if (!k.workload.empty())
            row.set("workload", k.workload);
        if (k.procs)
            row.set("procs", k.procs);
        row.set("ops_per_rep", k.opsPerRep);
        row.set("reps", k.reps);
        row.set("median_ms", k.medianMs);
        row.set("min_ms", k.minMs);
        row.set("max_ms", k.maxMs);
        row.set("ops_per_sec", k.opsPerSec);
        row.set("ns_per_op", k.nsPerOp);
        if (!k.stats.empty()) {
            Json stats = Json::object();
            for (const auto &kv : k.stats)
                stats.set(kv.first, kv.second);
            row.set("stats", std::move(stats));
        }
        arr.push(std::move(row));
    }
    doc.set("kernels", std::move(arr));
    return doc;
}

} // namespace perf
} // namespace csync
