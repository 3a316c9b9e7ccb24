/**
 * @file
 * The benchmark's own arithmetic on fixed synthetic inputs: percentiles
 * and their sample counts, error counting, self time when child spans
 * overlap, and per-op ratios over summed layer counts.
 */

#include <gtest/gtest.h>

#include "metrics.hh"
#include "spans.hh"

using namespace perfbench;

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 9.1);
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 10);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
    EXPECT_DOUBLE_EQ(percentile({4}, 90), 4);
}

TEST(Percentile, SummaryCountsSamplesBeyondP90)
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(i);
    Summary s = summarize(v);
    EXPECT_DOUBLE_EQ(s.p50, 100.5);
    EXPECT_DOUBLE_EQ(s.p90, 180.1);
    EXPECT_EQ(s.samples, 200u);
    EXPECT_EQ(s.beyondP90, 20u); // 181..200
}

TEST(CheckTally, CountsFailuresAgainstAttempts)
{
    CheckTally t;
    EXPECT_DOUBLE_EQ(t.errorRate(), 0);
    t.check(true, "a");
    t.check(false, "b failed");
    t.check(true, "c");
    t.check(false, "d failed");
    EXPECT_EQ(t.attempted(), 4u);
    EXPECT_EQ(t.failed(), 2u);
    EXPECT_DOUBLE_EQ(t.errorRate(), 0.5);
    ASSERT_EQ(t.failures().size(), 2u);
    EXPECT_EQ(t.failures()[0], "b failed");
}

TEST(CheckTally, KeepsOnlyTheFirstFewDescriptions)
{
    CheckTally t;
    for (int i = 0; i < 100; ++i)
        t.check(false, "x");
    EXPECT_EQ(t.failed(), 100u);
    EXPECT_EQ(t.failures().size(), 8u);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren)
{
    std::vector<SpanRecord> spans{
        {"parent", 0, 100, -1, 0},
        {"a", 10, 40, 0, 0},
        {"b", 30, 60, 0, 0},   // overlaps a: [10, 60] is covered once
        {"c", 90, 120, 0, 0},  // clipped to the parent: [90, 100]
        {"leaf", 15, 25, 1, 0}, // a's child, not the parent's
    };
    auto self = selfTimeNs(spans);
    EXPECT_DOUBLE_EQ(self["parent"], 100 - 50 - 10);
    EXPECT_DOUBLE_EQ(self["a"], 30 - 10);
    EXPECT_DOUBLE_EQ(self["b"], 30);
    EXPECT_DOUBLE_EQ(self["c"], 30);
    EXPECT_DOUBLE_EQ(self["leaf"], 10);
}

TEST(SelfTime, SumsSpansOfTheSameName)
{
    std::vector<SpanRecord> spans{
        {"job", 0, 10, -1, 0},
        {"run", 2, 8, 0, 0},
        {"job", 20, 30, -1, 1},
        {"run", 21, 29, 2, 1},
    };
    auto self = selfTimeNs(spans);
    EXPECT_DOUBLE_EQ(self["job"], 4 + 2);
    EXPECT_DOUBLE_EQ(self["run"], 6 + 8);
}

TEST(SpanRecorder, NullRecorderRecordsNothing)
{
    Span s(nullptr, "x");
    EXPECT_EQ(s.index(), -1);
    SpanRecorder rec;
    {
        Span outer(&rec, "outer");
        Span inner(&rec, "inner", outer.index(), 7);
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].run, 7u);
    EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);
    EXPECT_EQ(rec.durations("inner").size(), 1u);
}

namespace
{

/** Two switches and a root, two caches, two processors. */
std::map<std::string, double>
syntheticStats()
{
    return {
        {"system.cache0.accesses", 60},
        {"system.cache1.accesses", 40},
        {"system.cache0.hitsLocal", 45},
        {"system.cache1.hitsLocal", 30},
        {"system.cache0.missesBus", 15},
        {"system.cache1.missesBus", 10},
        {"system.cache0.busTransactions", 99}, // not a switch count
        {"system.cache0.lockRetries", 3},
        {"system.sync_bus.transactions", 20},
        {"system.data_switch.transactions", 10},
        {"system.root.transactions", 5},
        {"system.sync_bus.busyCycles", 300},
        {"system.data_switch.busyCycles", 100},
        {"system.root.busyCycles", 999},
        {"system.sync_bus.retries", 2},
        {"system.proc0.memStallCycles", 250},
        {"system.proc1.memStallCycles", 150},
    };
}

} // anonymous namespace

TEST(LayerCounts, PerOpRatiosFromOneRun)
{
    LayerCounts c;
    c.add(syntheticStats(), 1000, 2);
    EXPECT_DOUBLE_EQ(c.ops, 100);
    EXPECT_DOUBLE_EQ(c.hitRatio(), 0.75);
    EXPECT_DOUBLE_EQ(c.perOp(c.misses), 0.25);
    EXPECT_DOUBLE_EQ(c.ticksPerOp(), 10);
    EXPECT_DOUBLE_EQ(c.busTxnPerOp(), 0.35);
    EXPECT_DOUBLE_EQ(c.rootTxn, 5);
    EXPECT_DOUBLE_EQ(c.busUtilization(), 400.0 / 2000);
    EXPECT_DOUBLE_EQ(c.memStallShare(), 400.0 / 2000);
    EXPECT_DOUBLE_EQ(c.busRetries, 2);
    EXPECT_DOUBLE_EQ(c.lockRetries, 3);

    std::map<std::string, double> layer;
    c.exportTo(layer);
    EXPECT_DOUBLE_EQ(layer["mem.bus_transactions_per_op"], 0.30);
    EXPECT_DOUBLE_EQ(layer["bus_txn_per_op"], 0.35);
}

TEST(LayerCounts, RatiosAreTotalsOverTotals)
{
    LayerCounts c;
    c.add(syntheticStats(), 1000, 2);
    c.add(syntheticStats(), 3000, 2);
    EXPECT_DOUBLE_EQ(c.ops, 200);
    EXPECT_DOUBLE_EQ(c.ticksPerOp(), 20);
    EXPECT_DOUBLE_EQ(c.busUtilization(), 800.0 / 8000);
}

TEST(LayerCounts, EmptyRunsGiveZeroNotNan)
{
    LayerCounts c;
    EXPECT_DOUBLE_EQ(c.hitRatio(), 0);
    EXPECT_DOUBLE_EQ(c.ticksPerOp(), 0);
    EXPECT_DOUBLE_EQ(ratio(1, 0), 0);
}
