/**
 * @file
 * Tests for the streaming campaign journal: stable content-hashed job
 * IDs, the deterministic shard partition, journal round trips and
 * torn-tail tolerance, and the finalize step that makes a resumed or
 * merged campaign byte-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "harness/campaign_io.hh"
#include "harness/journal.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.name = "journal-test";
    spec.protocols = {"bitar", "illinois"};
    spec.workloads = {"random_sharing", "migration"};
    spec.processorCounts = {2};
    spec.seeds = {1, 2};
    spec.opsPerProcessor = 150;
    return spec;
}

std::vector<JobSpec>
smallGrid()
{
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_TRUE(smallSpec().expand(&jobs, &err)) << err;
    return jobs;
}

/** A scratch file removed when the test ends. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(JobId, StableAndUniqueAcrossTheGrid)
{
    auto jobs = smallGrid();
    std::set<std::string> ids;
    for (const auto &job : jobs) {
        std::string id = jobId(job);
        EXPECT_EQ(id.size(), 16u);
        EXPECT_EQ(id.find_first_not_of("0123456789abcdef"),
                  std::string::npos)
            << id;
        EXPECT_EQ(id, jobId(job)); // pure function of the spec
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), jobs.size());
}

TEST(JobId, FingerprintCoversTheFaultPlan)
{
    auto jobs = smallGrid();
    JobSpec faulted = jobs[0];
    faulted.config.fault.rate = 0.01;
    faulted.config.fault.seed = 7;
    EXPECT_NE(jobId(jobs[0]), jobId(faulted));
    EXPECT_NE(jobFingerprint(jobs[0]), jobFingerprint(faulted));
}

TEST(Shard, PartitionCoversEveryJobExactlyOnce)
{
    auto jobs = smallGrid();
    for (unsigned count : {1u, 2u, 3u}) {
        for (const auto &job : jobs) {
            unsigned owners = 0;
            for (unsigned i = 0; i < count; ++i) {
                Shard s;
                s.index = i;
                s.count = count;
                owners += shardContains(s, jobId(job)) ? 1 : 0;
            }
            EXPECT_EQ(owners, 1u) << job.name << " count=" << count;
        }
    }
}

TEST(Shard, ParseAcceptsAndRejects)
{
    Shard s;
    std::string err;
    ASSERT_TRUE(parseShard("2/4", &s, &err)) << err;
    EXPECT_EQ(s.index, 1u);
    EXPECT_EQ(s.count, 4u);
    EXPECT_EQ(s.str(), "2/4");
    EXPECT_FALSE(s.whole());

    for (const char *bad : {"0/4", "5/4", "x/4", "1/", "/4", "1",
                            "1/0", "1/4x", "1/-1", "-1/4", "1/+4",
                            "1/4294967296", "4294967297/4"}) {
        EXPECT_FALSE(parseShard(bad, &s, &err)) << bad;
        EXPECT_FALSE(err.empty());
    }
}

TEST(Journal, RoundTripsHeaderAndRows)
{
    auto jobs = smallGrid();
    TempPath path("journal_roundtrip.jsonl");

    JournalHeader header;
    header.name = "journal-test";
    header.spec = smallSpec().toJson();
    header.jobs = jobs.size();
    header.shard = "1/2";

    JournalWriter writer;
    std::string err;
    ASSERT_TRUE(writer.create(path.str(), header, &err)) << err;
    JobResult row = rowForSpec(jobs[0]);
    row.ticks = 1234;
    row.memOps = 600;
    row.wallMs = 3.5;
    row.stats["system.bus.transactions"] = 42;
    ASSERT_TRUE(writer.add(jobId(jobs[0]), row, &err)) << err;
    writer.close();

    JournalData data;
    ASSERT_TRUE(loadJournal(path.str(), &data, &err)) << err;
    EXPECT_FALSE(data.truncatedTail);
    EXPECT_EQ(data.header.name, "journal-test");
    EXPECT_EQ(data.header.jobs, jobs.size());
    EXPECT_EQ(data.header.shard, "1/2");
    EXPECT_EQ(data.header.spec.dump(-1), header.spec.dump(-1));
    ASSERT_EQ(data.byId.size(), 1u);
    const JobResult &back = data.byId.begin()->second;
    EXPECT_EQ(back.name, row.name);
    EXPECT_EQ(back.ticks, row.ticks);
    EXPECT_EQ(back.topology, row.topology);
    EXPECT_EQ(back.stats, row.stats);
}

TEST(Journal, LoaderRefusesNonIntegralHeaderAndRowFields)
{
    TempPath path("journal_numbers.jsonl");
    JournalData data;
    std::string err;
    auto load = [&](const std::string &header, const std::string &row) {
        {
            std::ofstream out(path.str(),
                              std::ios::binary | std::ios::trunc);
            out << header << "\n" << row << "\n";
        }
        return loadJournal(path.str(), &data, &err);
    };
    const std::string header =
        "{\"csync_journal\":1,\"name\":\"x\",\"spec\":{},\"jobs\":1}";
    const std::string row =
        "{\"job_id\":\"aa\",\"row\":{\"name\":\"j\",\"ticks\":3498}}";
    ASSERT_TRUE(load(header, row)) << err;
    EXPECT_EQ(data.header.jobs, 1u);

    EXPECT_FALSE(load("{\"csync_journal\":1,\"name\":\"x\",\"spec\":{},"
                      "\"jobs\":2.5}",
                      row));
    EXPECT_NE(err.find("\"jobs\""), std::string::npos) << err;
    EXPECT_FALSE(load(header, "{\"job_id\":\"aa\",\"row\":{\"name\":\"j\","
                              "\"ticks\":3498.9}}"));
    EXPECT_NE(err.find("\"ticks\""), std::string::npos) << err;
    EXPECT_FALSE(load(header, "{\"job_id\":\"aa\",\"row\":{\"name\":\"j\","
                              "\"checker_violations\":-1}}"));
    EXPECT_NE(err.find("\"checker_violations\""), std::string::npos)
        << err;
}

TEST(Journal, TornTrailingLineIsDroppedButMiddleCorruptionIsNot)
{
    auto jobs = smallGrid();
    TempPath path("journal_torn.jsonl");

    JournalHeader header;
    header.name = "torn";
    header.spec = smallSpec().toJson();
    header.jobs = jobs.size();
    JournalWriter writer;
    std::string err;
    ASSERT_TRUE(writer.create(path.str(), header, &err)) << err;
    ASSERT_TRUE(writer.add(jobId(jobs[0]), rowForSpec(jobs[0]), &err));
    ASSERT_TRUE(writer.add(jobId(jobs[1]), rowForSpec(jobs[1]), &err));
    writer.close();

    // What a SIGKILL mid-append leaves behind: a partial last line.
    {
        std::ofstream app(path.str(),
                          std::ios::binary | std::ios::app);
        app << "{\"job_id\":\"deadbeef\",\"row\":{\"na";
    }
    JournalData data;
    ASSERT_TRUE(loadJournal(path.str(), &data, &err)) << err;
    EXPECT_TRUE(data.truncatedTail);
    EXPECT_EQ(data.byId.size(), 2u);

    // Corruption anywhere else is an error, not a silent drop.
    {
        std::ofstream out(path.str(),
                          std::ios::binary | std::ios::trunc);
        out << "{\"csync_journal\":1,\"name\":\"x\",\"spec\":{},"
               "\"jobs\":1}\n";
        out << "not json\n";
        out << "{\"job_id\":\"aa\",\"row\":{\"name\":\"j\","
               "\"status\":\"ok\"}}\n";
    }
    EXPECT_FALSE(loadJournal(path.str(), &data, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Journal, FinalizeIsAPureFunctionOfTheSimulations)
{
    auto jobs = smallGrid();
    CampaignRunner::Options serial;
    serial.jobs = 1;
    CampaignRunner::Options pool;
    pool.jobs = 4;
    CampaignResult a = CampaignRunner().run(jobs, serial);
    CampaignResult b = CampaignRunner().run(jobs, pool);

    auto collect = [&](const CampaignResult &r) {
        std::map<std::string, JobResult> by_id;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            by_id[jobId(jobs[i])] = r.rows[i];
        return by_id;
    };
    Json spec_json = smallSpec().toJson();
    std::vector<std::string> missing;
    CampaignResult fa = finalizeCampaign("t", spec_json, jobs,
                                         collect(a), &missing);
    CampaignResult fb = finalizeCampaign("t", spec_json, jobs,
                                         collect(b), &missing);
    EXPECT_TRUE(missing.empty());
    ASSERT_EQ(fa.rows.size(), jobs.size());
    // Byte-identical documents despite different worker counts and
    // host timings: finalize zeroes what the host contributed.
    EXPECT_EQ(campaignToJson(fa).dump(0), campaignToJson(fb).dump(0));
    for (const auto &row : fa.rows) {
        EXPECT_EQ(row.wallMs, 0.0);
        EXPECT_EQ(row.hostMops, 0.0);
    }
}

TEST(Journal, ShardedRunsMergeIntoTheWholeCampaign)
{
    auto jobs = smallGrid();
    Json spec_json = smallSpec().toJson();

    // The whole campaign in one go...
    std::map<std::string, JobResult> whole;
    CampaignResult all = CampaignRunner().run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        whole[jobId(jobs[i])] = all.rows[i];
    std::vector<std::string> missing;
    CampaignResult ref = finalizeCampaign("t", spec_json, jobs, whole,
                                          &missing);

    // ...and as two disjoint shards, merged.
    std::map<std::string, JobResult> merged;
    for (unsigned i = 0; i < 2; ++i) {
        Shard s;
        s.index = i;
        s.count = 2;
        std::vector<JobSpec> slice;
        for (const auto &job : jobs) {
            if (shardContains(s, jobId(job)))
                slice.push_back(job);
        }
        EXPECT_FALSE(slice.empty());
        CampaignResult part = CampaignRunner().run(slice);
        for (std::size_t j = 0; j < slice.size(); ++j)
            merged[jobId(slice[j])] = part.rows[j];
    }
    CampaignResult joined = finalizeCampaign("t", spec_json, jobs,
                                             merged, &missing);
    EXPECT_TRUE(missing.empty());
    EXPECT_EQ(campaignToJson(ref).dump(0),
              campaignToJson(joined).dump(0));
}

TEST(Journal, FinalizeReportsMissingJobsInGridOrder)
{
    auto jobs = smallGrid();
    std::map<std::string, JobResult> by_id;
    by_id[jobId(jobs[1])] = rowForSpec(jobs[1]);
    std::vector<std::string> missing;
    CampaignResult final = finalizeCampaign("t", Json(), jobs, by_id,
                                            &missing);
    EXPECT_EQ(final.rows.size(), 1u);
    ASSERT_EQ(missing.size(), jobs.size() - 1);
    EXPECT_EQ(missing[0], jobs[0].name);
}
