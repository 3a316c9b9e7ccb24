/**
 * @file
 * Tests for the campaign runner and the comparison gate: identical
 * rows at any worker count (the determinism contract the pool relies
 * on), graceful per-job failure capture, JSON document round trips,
 * CSV export, and drift detection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "harness/campaign.hh"
#include "harness/campaign_io.hh"
#include "harness/compare.hh"
#include "harness/runner_proc.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

std::vector<JobSpec>
smallGrid()
{
    SweepSpec spec;
    spec.protocols = {"bitar", "illinois"};
    spec.workloads = {"random_sharing", "migration"};
    spec.processorCounts = {2};
    spec.opsPerProcessor = 200;
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_TRUE(spec.expand(&jobs, &err)) << err;
    return jobs;
}

} // namespace

TEST(Campaign, RowsIdenticalAtAnyWorkerCount)
{
    auto jobs = smallGrid();
    CampaignRunner runner;
    CampaignRunner::Options serial;
    serial.jobs = 1;
    CampaignRunner::Options parallel;
    parallel.jobs = 4;

    CampaignResult a = runner.run(jobs, serial);
    CampaignResult b = runner.run(jobs, parallel);
    ASSERT_EQ(a.rows.size(), jobs.size());
    ASSERT_EQ(b.rows.size(), jobs.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].name, b.rows[i].name);
        EXPECT_EQ(a.rows[i].status, "ok") << a.rows[i].error;
        EXPECT_EQ(a.rows[i].status, b.rows[i].status);
        EXPECT_EQ(a.rows[i].ticks, b.rows[i].ticks);
        EXPECT_EQ(a.rows[i].memOps, b.rows[i].memOps);
        EXPECT_EQ(a.rows[i].stats, b.rows[i].stats) << a.rows[i].name;
    }
}

TEST(Campaign, CapturesBadJobsAsErrorRows)
{
    auto jobs = smallGrid();
    // A config the validator rejects...
    JobSpec bad;
    bad.name = "bad/zero-procs";
    bad.config.numProcessors = 0;
    bad.workload = "random_sharing";
    jobs.push_back(bad);
    // ...and a workload/protocol combination the factory rejects.
    JobSpec locked;
    locked.name = "bad/goodman-lock";
    locked.config.protocol = "goodman";
    locked.config.numProcessors = 2;
    locked.workload = "critical_section";
    jobs.push_back(locked);

    CampaignRunner::Options opts;
    opts.jobs = 2;
    CampaignResult result = CampaignRunner().run(jobs, opts);
    ASSERT_EQ(result.rows.size(), jobs.size());
    EXPECT_EQ(result.failures(), 2u);

    const JobResult &zero = result.rows[result.rows.size() - 2];
    EXPECT_EQ(zero.status, "error");
    EXPECT_NE(zero.error.find("at least one processor"),
              std::string::npos)
        << zero.error;
    const JobResult &lock = result.rows.back();
    EXPECT_EQ(lock.status, "error");
    EXPECT_NE(lock.error.find("Feature 6"), std::string::npos)
        << lock.error;
    // The good jobs still completed.
    for (std::size_t i = 0; i + 2 < result.rows.size(); ++i)
        EXPECT_EQ(result.rows[i].status, "ok")
            << result.rows[i].name << ": " << result.rows[i].error;
}

TEST(Campaign, TimeoutReportedWhenBudgetTooSmall)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    // Enough work that the event queue's 4096-step batches cannot
    // complete the job before the tick budget is checked.
    jobs[0].ops = 50000;
    jobs[0].maxTicks = 50;
    JobResult r = CampaignRunner::runJob(jobs[0]);
    EXPECT_EQ(r.status, "timeout");
    EXPECT_NE(r.error.find("unfinished"), std::string::npos);
}

TEST(Campaign, RowEchoesTopologyAndTrace)
{
    auto jobs = smallGrid();
    JobResult plain = rowForSpec(jobs[0]);
    EXPECT_EQ(plain.topology, jobs[0].config.topology.preset);
    EXPECT_FALSE(plain.topology.empty());
    EXPECT_TRUE(plain.trace.empty());

    JobSpec traced = jobs[0];
    traced.workload = "trace:captures/foo.ctrace";
    JobResult row = rowForSpec(traced);
    EXPECT_EQ(row.trace, "captures/foo.ctrace");
}

TEST(Campaign, WallDeadlineYieldsWallTimeoutRow)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    // A workload that never finishes, with an effectively unlimited
    // simulated-time budget: only the harness watchdog can end it.
    jobs[0].workload = "__spin";
    jobs[0].maxTicks = Tick(1) << 40;

    CampaignRunner::Options opts;
    opts.jobs = 1;
    opts.wallDeadlineMs = 100;
    CampaignResult result = CampaignRunner().run(jobs, opts);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0].status, "wall_timeout");
    EXPECT_NE(result.rows[0].error.find("wall-clock deadline"),
              std::string::npos)
        << result.rows[0].error;
    EXPECT_LT(result.rows[0].ticks, jobs[0].maxTicks);
}

TEST(Campaign, RetriesTransientFailuresWithBackoffAccounting)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    CampaignRunner::Options opts;
    opts.jobs = 1;
    opts.maxRetries = 5;
    opts.retryBackoffMs = 1;
    std::atomic<unsigned> calls{0};
    opts.executor = [&](const JobSpec &spec, unsigned attempt) {
        ++calls;
        JobResult r = rowForSpec(spec);
        if (attempt < 3) {
            r.status = "crashed";
            r.error = "synthetic crash";
        }
        return r;
    };
    CampaignResult result = CampaignRunner().run(jobs, opts);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0].status, "ok");
    EXPECT_EQ(result.rows[0].attempts, 3u);
    // 1 ms before the second attempt, 2 ms before the third.
    EXPECT_EQ(result.rows[0].retryBackoffMs, 3.0);
    EXPECT_EQ(calls.load(), 3u);
}

TEST(Campaign, RetriesAreBoundedAndSkipDeterministicFailures)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    CampaignRunner::Options opts;
    opts.jobs = 1;
    opts.maxRetries = 2;
    opts.retryBackoffMs = 1;
    std::atomic<unsigned> calls{0};
    opts.executor = [&](const JobSpec &spec, unsigned) {
        ++calls;
        JobResult r = rowForSpec(spec);
        r.status = "wall_timeout";
        return r;
    };
    CampaignResult result = CampaignRunner().run(jobs, opts);
    EXPECT_EQ(result.rows[0].status, "wall_timeout");
    EXPECT_EQ(result.rows[0].attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(calls.load(), 3u);

    // A deterministic simulation outcome never retries: re-running a
    // livelock reproduces it exactly, so retrying only wastes time.
    calls = 0;
    opts.executor = [&](const JobSpec &spec, unsigned) {
        ++calls;
        JobResult r = rowForSpec(spec);
        r.status = "livelock";
        return r;
    };
    result = CampaignRunner().run(jobs, opts);
    EXPECT_EQ(result.rows[0].attempts, 1u);
    EXPECT_EQ(calls.load(), 1u);
}

TEST(Campaign, GracefulDrainSkipsUnclaimedJobs)
{
    auto jobs = smallGrid();
    std::atomic<bool> stop{true}; // drain before anything is claimed
    CampaignRunner::Options opts;
    opts.jobs = 2;
    opts.stop = &stop;
    CampaignResult result = CampaignRunner().run(jobs, opts);
    EXPECT_TRUE(result.interrupted);
    ASSERT_EQ(result.rows.size(), jobs.size());
    for (const auto &row : result.rows) {
        EXPECT_EQ(row.status, "skipped");
        EXPECT_NE(row.error.find("drained"), std::string::npos);
        EXPECT_FALSE(row.name.empty());
    }
}

TEST(Campaign, IsolateTurnsACrashIntoARow)
{
    if (!childIsolationSupported())
        GTEST_SKIP() << "no fork() on this platform";
    auto jobs = smallGrid();
    jobs.resize(2);
    // One job aborts the process partway through; under isolation the
    // campaign survives and records it, stderr tail attached.
    jobs[0].workload = "__crash";
    jobs[0].maxTicks = 1'000'000;

    CampaignRunner::Options opts;
    opts.jobs = 1;
    opts.isolate = true;
    CampaignResult result = CampaignRunner().run(jobs, opts);
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.rows[0].status, "crashed");
    EXPECT_NE(result.rows[0].error.find("signal"), std::string::npos)
        << result.rows[0].error;
    EXPECT_NE(result.rows[0].stderrTail.find("deliberate abort"),
              std::string::npos)
        << result.rows[0].stderrTail;
    EXPECT_EQ(result.rows[1].status, "ok") << result.rows[1].error;
}

TEST(Campaign, JsonDocumentRoundTrips)
{
    auto jobs = smallGrid();
    jobs.resize(2);
    CampaignResult result = CampaignRunner().run(jobs);
    result.name = "roundtrip";

    Json doc = campaignToJson(result);
    std::string err;
    Json reparsed = Json::parse(doc.dump(0), &err);
    ASSERT_TRUE(err.empty()) << err;

    CampaignResult loaded;
    ASSERT_TRUE(campaignFromJson(reparsed, &loaded, &err)) << err;
    EXPECT_EQ(loaded.name, "roundtrip");
    ASSERT_EQ(loaded.rows.size(), result.rows.size());
    for (std::size_t i = 0; i < loaded.rows.size(); ++i) {
        EXPECT_EQ(loaded.rows[i].name, result.rows[i].name);
        EXPECT_EQ(loaded.rows[i].ticks, result.rows[i].ticks);
        EXPECT_EQ(loaded.rows[i].stats, result.rows[i].stats);
    }
}

TEST(Campaign, LoaderRejectsNonCampaignDocuments)
{
    CampaignResult out;
    std::string err;
    EXPECT_FALSE(campaignFromJson(Json::parse("{}", &err), &out, &err));
    EXPECT_NE(err.find("csync_campaign"), std::string::npos) << err;
    Json doc = Json::object();
    doc.set("csync_campaign", 99);
    EXPECT_FALSE(campaignFromJson(doc, &out, &err));
    EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;
}

TEST(Campaign, LoaderRefusesNonIntegralCountsAndTicks)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    Json good = campaignToJson(CampaignRunner().run(jobs));
    CampaignResult out;
    std::string err;
    ASSERT_TRUE(campaignFromJson(good, &out, &err)) << err;

    // A golden row edited to a fractional tick or a negative violation
    // count must be refused, not truncated into a matching row.
    auto edited = [&](const char *key, double value) {
        std::string perr;
        Json doc = Json::parse(good.dump(0), &perr);
        Json row = doc["rows"].at(0);
        row.set(key, value);
        Json rows = Json::array();
        rows.push(std::move(row));
        doc.set("rows", std::move(rows));
        return doc;
    };
    EXPECT_FALSE(campaignFromJson(edited("ticks", 3498.9), &out, &err));
    EXPECT_NE(err.find("\"ticks\""), std::string::npos) << err;
    EXPECT_FALSE(
        campaignFromJson(edited("checker_violations", -1), &out, &err));
    EXPECT_NE(err.find("\"checker_violations\""), std::string::npos)
        << err;

    Json doc = Json::parse(good.dump(0), &err);
    doc.set("workers", 2.5);
    EXPECT_FALSE(campaignFromJson(doc, &out, &err));
    EXPECT_NE(err.find("\"workers\""), std::string::npos) << err;
    doc = Json::parse(good.dump(0), &err);
    doc.set("csync_campaign", 1.5);
    EXPECT_FALSE(campaignFromJson(doc, &out, &err));
}

TEST(Campaign, CsvHasHeaderAndOneLinePerJob)
{
    auto jobs = smallGrid();
    jobs.resize(2);
    CampaignResult result = CampaignRunner().run(jobs);
    std::ostringstream csv;
    campaignToCsv(result, csv);
    std::istringstream in(csv.str());
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("name,protocol,workload"), std::string::npos);
    EXPECT_NE(header.find("system.bus.transactions"),
              std::string::npos);
    unsigned lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 2u);
}

TEST(Compare, IdenticalCampaignsPass)
{
    auto jobs = smallGrid();
    jobs.resize(2);
    CampaignResult a = CampaignRunner().run(jobs);
    CampaignResult b = CampaignRunner().run(jobs);
    CompareReport rep = compareCampaigns(a, b);
    EXPECT_TRUE(rep.ok) << rep.text;
    EXPECT_EQ(rep.drifted, 0u);
    EXPECT_GT(rep.compared, 10u);
}

TEST(Compare, DetectsDriftAndHonorsTolerance)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    CampaignResult a = CampaignRunner().run(jobs);
    CampaignResult b = a;
    auto it = b.rows[0].stats.find("system.bus.transactions");
    ASSERT_NE(it, b.rows[0].stats.end());
    it->second *= 1.02; // 2% drift

    CompareReport strict = compareCampaigns(a, b);
    EXPECT_FALSE(strict.ok);
    EXPECT_EQ(strict.drifted, 1u);
    EXPECT_NE(strict.text.find("system.bus.transactions"),
              std::string::npos)
        << strict.text;

    CompareOptions loose;
    loose.tolerancePct = 5.0;
    EXPECT_TRUE(compareCampaigns(a, b, loose).ok);
}

TEST(Compare, FirstDifferenceIsFullyLocated)
{
    auto jobs = smallGrid();
    jobs.resize(1);
    CampaignResult a = CampaignRunner().run(jobs);
    CampaignResult b = a;
    auto it = b.rows[0].stats.find("system.bus.transactions");
    ASSERT_NE(it, b.rows[0].stats.end());
    it->second += 5;

    CompareReport rep = compareCampaigns(a, b);
    ASSERT_FALSE(rep.ok);
    // The first offender is named — job, stat path, both values — and
    // repeated in the summary so it survives detail-line truncation.
    EXPECT_NE(rep.firstDiff.find(a.rows[0].name), std::string::npos)
        << rep.firstDiff;
    EXPECT_NE(rep.firstDiff.find("system.bus.transactions"),
              std::string::npos)
        << rep.firstDiff;
    EXPECT_NE(rep.firstDiff.find("->"), std::string::npos);
    EXPECT_NE(rep.text.find("first difference: " + rep.firstDiff),
              std::string::npos)
        << rep.text;

    CompareReport clean = compareCampaigns(a, a);
    EXPECT_TRUE(clean.firstDiff.empty());
}

TEST(Compare, DetectsMissingJobsAndStatusChanges)
{
    auto jobs = smallGrid();
    jobs.resize(2);
    CampaignResult a = CampaignRunner().run(jobs);
    CampaignResult b = a;
    b.rows[1].status = "error";
    b.rows[1].error = "synthetic failure";
    CompareReport rep = compareCampaigns(a, b);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.statusChanges, 1u);
    EXPECT_NE(rep.text.find("synthetic failure"), std::string::npos);

    CampaignResult c = a;
    c.rows.pop_back();
    CompareReport rep2 = compareCampaigns(a, c);
    EXPECT_FALSE(rep2.ok);
    EXPECT_GE(rep2.missing, 1u);
    EXPECT_NE(rep2.text.find("missing from new campaign"),
              std::string::npos);
}
