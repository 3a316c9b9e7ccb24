/**
 * @file
 * Unit tests for the bench harness: median math, monotonic timing, and
 * the document fields the same-machine A/B driver (tools/perf_ab.py)
 * reads.
 */

#include <gtest/gtest.h>

#include <string>

#include "perf/bench_harness.hh"

using namespace csync;
using namespace csync::perf;

TEST(Median, OddAndEvenInputs)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({10.0, 10.0, 1.0, 10.0}), 10.0);
}

TEST(BenchHarness, TimingIsMonotoneAndOpsPropagate)
{
    BenchHarness h;
    BenchOptions opts;
    opts.warmup = 1;
    opts.reps = 3;
    int calls = 0;
    KernelResult r = h.run("spin", [&calls]() -> std::uint64_t {
        ++calls;
        // Enough work to register on the steady clock.
        volatile std::uint64_t x = 1;
        for (int i = 0; i < 200000; ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        return 1000;
    }, opts);

    EXPECT_EQ(calls, 4); // 1 warmup + 3 timed
    EXPECT_EQ(r.name, "spin");
    EXPECT_EQ(r.opsPerRep, 1000u);
    EXPECT_EQ(r.reps, 3u);
    EXPECT_GT(r.medianMs, 0.0);
    EXPECT_LE(r.minMs, r.medianMs);
    EXPECT_LE(r.medianMs, r.maxMs);
    EXPECT_GT(r.opsPerSec, 0.0);
    EXPECT_GT(r.nsPerOp, 0.0);
    // ops/sec and ns/op describe the same median repetition.
    EXPECT_NEAR(r.opsPerSec * r.nsPerOp, 1e9, 1e9 * 1e-9);
}

TEST(BenchHarness, InterleavedKernelsAlternateRepByRep)
{
    // The --min-speedup gate compares a pair rep by rep, so rep i of
    // every kernel must run before rep i+1 of any.
    BenchHarness h;
    BenchOptions opts;
    opts.warmup = 1;
    opts.reps = 3;
    std::string order;
    auto kernel = [&order](char tag) {
        return [&order, tag]() -> std::uint64_t {
            order += tag;
            return 10;
        };
    };
    std::vector<KernelResult> rs =
        h.runInterleaved({{"a", kernel('a')}, {"b", kernel('b')}}, opts);
    EXPECT_EQ(order, "abababab"); // one warmup each, then 3 reps
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_EQ(rs[0].name, "a");
    EXPECT_EQ(rs[1].name, "b");
    for (const KernelResult &r : rs) {
        EXPECT_EQ(r.repMs.size(), 3u);
        EXPECT_EQ(r.opsPerRep, 10u);
    }
}

TEST(BenchHarness, PeakRssIsNonZeroOnSupportedPlatforms)
{
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_GT(peakRssKb(), 0u);
#endif
}

TEST(BenchJson, CarriesTheFieldsTheAbDriverReads)
{
    // tools/perf_ab.py matches kernels by "name" across the two
    // checkouts and judges "ns_per_op"; it refuses a document without
    // the "csync_bench" version key or the "kernels" array.
    KernelResult k;
    k.name = "bitar_cluster_local_4x2";
    k.protocol = "bitar";
    k.workload = "cluster_local";
    k.procs = 8;
    k.opsPerRep = 160000;
    k.reps = 5;
    k.medianMs = 80.0;
    k.opsPerSec = 2e6;
    k.nsPerOp = 500.0;
    k.stats["system.root.transactions"] = 0;
    BenchOptions opts;
    opts.warmup = 2;
    opts.reps = 7;
    harness::Json doc = benchToJson({k}, "sim_core", "full", opts);

    // Through text and back, as the driver reads it.
    std::string err;
    harness::Json parsed = harness::Json::parse(doc.dump(0), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(int(parsed["csync_bench"].asNumber()), kBenchVersion);
    EXPECT_EQ(parsed["mode"].asString(), "full");
    EXPECT_EQ(int(parsed["reps"].asNumber()), 7);
    const harness::Json &kernels = parsed["kernels"];
    ASSERT_TRUE(kernels.isArray());
    ASSERT_EQ(kernels.size(), 1u);
    const harness::Json &row = kernels.at(0);
    EXPECT_EQ(row["name"].asString(), "bitar_cluster_local_4x2");
    EXPECT_DOUBLE_EQ(row["ns_per_op"].asNumber(), 500.0);
    EXPECT_DOUBLE_EQ(row["ops_per_sec"].asNumber(), 2e6);
    EXPECT_EQ(row["protocol"].asString(), "bitar");
    EXPECT_DOUBLE_EQ(
        row["stats"]["system.root.transactions"].asNumber(), 0.0);
}
