/**
 * @file
 * protocol_campaign: the csync-sweep user path.  A grid of every shipped
 * protocol x {random_contended, producer_consumer} x four seeds, plus
 * the protocols that can run it x critical_section x the same seeds, on
 * an 8-processor single bus, run by CampaignRunner on two workers with
 * every row journaled; the journals are then reloaded (the --resume
 * read path) and finalized into campaign documents.  One repetition of
 * all of that is one round; each row is one job.
 */

#include <algorithm>
#include <memory>

#include "harness/campaign.hh"
#include "harness/campaign_io.hh"
#include "harness/journal.hh"
#include "mc/explorer.hh"
#include "perf/bench_harness.hh"
#include "sim_job.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace csync;
using namespace csync::harness;

namespace
{

constexpr unsigned kProcs = 8;
constexpr unsigned kSeeds = 4;
/** Campaign workers.  On a shared 4-vCPU host, 4 workers spread 9-14%
 *  from run to run at reference speed, 2 workers about 3%. */
constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kOpsPerProc = 600;

/** One sweep of the grid and its journal. */
struct Campaign
{
    SweepSpec spec;
    std::vector<JobSpec> grid;
    std::vector<std::string> ids;
    std::string journal;
};

/** True when @p protocol can run the lock recipes (Feature 6). */
bool
runsLockRecipes(const std::string &protocol)
{
    WorkloadSlot slot;
    slot.protocol = protocol;
    std::string err;
    return makeWorkload("critical_section", slot, &err) != nullptr;
}

/** Expand the two sweeps and create their journals. */
std::vector<Campaign>
prepare(const RunOptions &opt, CheckTally &checks)
{
    Span expand(opt.rec, "harness.expand");
    SweepSpec all;
    all.name = "perfbench_protocols";
    all.protocols = mc::StateExplorer::shippedProtocols();
    all.workloads = {"random_contended", "producer_consumer"};
    all.processorCounts = {kProcs};
    all.opsPerProcessor = kOpsPerProc;
    all.seeds.clear();
    for (unsigned i = 0; i < kSeeds; ++i)
        all.seeds.push_back(opt.seed * kSeeds + i);
    SweepSpec locks = all;
    locks.name = "perfbench_locks";
    locks.workloads = {"critical_section"};
    locks.protocols.clear();
    for (const auto &p : all.protocols) {
        if (runsLockRecipes(p))
            locks.protocols.push_back(p);
    }

    std::vector<Campaign> out;
    for (SweepSpec *spec : {&all, &locks}) {
        Campaign c;
        c.spec = *spec;
        std::string err;
        checks.check(c.spec.expand(&c.grid, &err), "expand: " + err);
        for (const auto &job : c.grid)
            c.ids.push_back(jobId(job));
        c.journal = opt.workDir + "/" + c.spec.name + ".journal.jsonl";
        out.push_back(std::move(c));
    }
    expand.close();

    for (const Campaign &c : out) {
        JournalWriter w;
        std::string err;
        JournalHeader h{c.spec.name, c.spec.toJson(), c.grid.size(), ""};
        checks.check(w.create(c.journal, h, &err), "journal: " + err);
    }
    return out;
}

/** What one round produced. */
struct Round
{
    double seconds = 0;
    CampaignResult result;
    std::vector<JobSpec> jobs;
    /** Finalized documents rebuilt from the journals, per sweep. */
    std::vector<std::string> docs;
    bool journalsOk = true;
    std::string journalError;
};

Round
runRound(const std::vector<Campaign> &cs, const RunOptions &opt,
         SpanRecorder *rec, std::uint64_t k)
{
    Round out;
    auto t0 = std::chrono::steady_clock::now();
    Span round(rec, "campaign.round", -1, k);
    auto fail = [&](const std::string &err) {
        out.journalsOk = false;
        out.journalError = err;
    };

    std::vector<JournalWriter> writers(cs.size());
    std::map<std::string, std::pair<std::size_t, std::string>> owner;
    for (std::size_t j = 0; j < cs.size(); ++j) {
        std::string err;
        JournalHeader h{cs[j].spec.name, cs[j].spec.toJson(),
                        cs[j].grid.size(), ""};
        if (!writers[j].create(cs[j].journal, h, &err))
            fail(err);
        for (std::size_t i = 0; i < cs[j].grid.size(); ++i) {
            owner[cs[j].grid[i].name] = {j, cs[j].ids[i]};
            out.jobs.push_back(cs[j].grid[i]);
        }
    }

    Span run(rec, "harness.run", round.index(), k);
    CampaignRunner::Options o;
    o.jobs = std::min(kWorkers, opt.threads);
    o.onJobDone = [&](std::size_t, std::size_t, const JobResult &row) {
        const auto &[j, id] = owner.at(row.name);
        Span append(rec, "harness.journal_append", run.index(), k);
        std::string err;
        if (!writers[j].add(id, row, &err))
            fail(err);
    };
    out.result = CampaignRunner().run(out.jobs, o);
    run.close();
    for (auto &w : writers)
        w.close();

    Span load(rec, "harness.journal_load", round.index(), k);
    std::vector<JournalData> data(cs.size());
    for (std::size_t j = 0; j < cs.size(); ++j) {
        std::string err;
        if (!loadJournal(cs[j].journal, &data[j], &err))
            fail(err);
    }
    load.close();

    Span fin(rec, "harness.finalize", round.index(), k);
    for (const JournalData &d : data) {
        SweepSpec spec;
        std::vector<JobSpec> grid;
        std::vector<std::string> missing;
        std::string err;
        if (!SweepSpec::fromJson(d.header.spec, &spec, &err) ||
            !spec.expand(&grid, &err)) {
            fail(err);
        }
        CampaignResult final = finalizeCampaign(d.header.name, d.header.spec,
                                                grid, d.byId, &missing);
        if (!missing.empty())
            fail(std::to_string(missing.size()) + " rows missing");
        out.docs.push_back(campaignToJson(final).dump());
    }
    fin.close();
    round.close();
    out.seconds = secondsSince(t0);
    return out;
}

/** The document an uninterrupted in-memory campaign finalizes to. */
std::string
inMemoryDoc(const Campaign &c, const CampaignResult &result)
{
    std::map<std::string, JobResult> by_id;
    for (const JobResult &row : result.rows) {
        for (std::size_t i = 0; i < c.grid.size(); ++i) {
            if (c.grid[i].name == row.name)
                by_id.emplace(c.ids[i], row);
        }
    }
    std::vector<std::string> missing;
    return campaignToJson(finalizeCampaign(c.spec.name, c.spec.toJson(),
                                           c.grid, by_id, &missing))
        .dump();
}

} // anonymous namespace

void
runProtocolCampaign(const RunOptions &opt, Result &res)
{
    std::vector<Campaign> cs;
    repeatSetup(res, [&] {
        cs = prepare(opt, res.checks);
        std::shared_ptr<trace::TraceReplayEngine> engine;
        auto first = buildSystem(cs[0].grid.at(0), engine);
    });

    std::vector<std::string> first_docs;
    LayerCounts counts;
    double mem_ops = 0, idle = 0, rounds = 0;
    double round_events = 0;
    std::vector<double> depths;
    repeatFor(opt, res, 2, [&](unsigned k, bool traced) {
        SpanRecorder *rec = traced ? opt.rec : nullptr;
        Round r = runRound(cs, opt, rec, k);

        for (const JobResult &row : r.result.rows) {
            res.checks.check(row.ok() && row.checkerViolations == 0 &&
                                 row.invariantViolations == 0,
                             row.name + ": " + row.status + " " + row.error);
        }
        for (std::size_t j = 0; j < cs.size(); ++j) {
            bool same = r.journalsOk && j < r.docs.size() &&
                        r.docs[j] == inMemoryDoc(cs[j], r.result) &&
                        (first_docs.empty() || r.docs[j] == first_docs[j]);
            res.checks.check(same, cs[j].spec.name +
                                       ": journal document differs " +
                                       r.journalError);
        }
        if (first_docs.empty()) {
            first_docs = r.docs;
            for (const JobResult &row : r.result.rows)
                counts.add(row.stats, double(row.ticks), row.procs);
        }

        double busy_ms = 0;
        for (const JobResult &row : r.result.rows)
            busy_ms += row.wallMs;
        idle += 1 - ratio(busy_ms, r.result.workers * r.result.wallMs);
        ++rounds;
        if (opt.rec)
            (traced ? res.tracedMs : res.untracedMs).push_back(r.seconds * 1e3);
        if (traced && round_events == 0) {
            // Rebuild every row of the first traced round through the
            // public System API, so a row's host time splits into
            // construct / run / flatten / invariants; each rebuilt row
            // must equal the runner's.
            double events = 0;
            for (std::size_t i = 0; i < r.jobs.size(); ++i) {
                const JobResult &row = r.result.rows.at(i);
                Span job(rec, "rebuild.job", -1, k);
                SimRun sr = runSim(r.jobs[i], rec, job.index(), k);
                res.checks.check(sr.ok && sr.stats == row.stats &&
                                     sr.ticks == row.ticks,
                                 row.name + ": rebuilt row differs");
                events += double(sr.events);
                depths.push_back(double(sr.pendingAtStart));
            }
            round_events = events;
        }
        if (traced)
            return;
        for (const JobResult &row : r.result.rows) {
            res.jobMs.push_back(row.wallMs);
            mem_ops += double(row.memOps);
        }
        res.addRound(double(r.result.rows.size()), r.seconds);
    });

    Summary s = summarize(res.jobMs);
    res.note("rows_per_s", ratio(res.jobs, res.busySeconds), "1/s");
    res.note("job_ms_p50", s.p50, "ms");
    res.note("job_ms_p90", s.p90, "ms");
    res.note("job_samples", double(s.samples), "count");
    res.note("sim_mops", ratio(mem_ops, res.busySeconds) / 1e6, "Mref/s");
    res.note("sim_ticks_per_op", counts.ticksPerOp(), "ticks/op");
    res.note("bus_txn_per_op", counts.busTxnPerOp(), "txn/op");
    res.note("cache_hit_ratio", counts.hitRatio(), "share");

    if (!opt.rec)
        return;
    counts.exportTo(res.layer);
    const SpanRecorder &rec = *opt.rec;
    res.layer["harness.expand_ms"] = medianUs(rec, "harness.expand") / 1e3;
    res.layer["harness.journal_append_us"] =
        medianUs(rec, "harness.journal_append");
    res.layer["harness.journal_load_ms"] =
        medianUs(rec, "harness.journal_load") / 1e3;
    res.layer["harness.finalize_ms"] = medianUs(rec, "harness.finalize") / 1e3;
    res.layer["harness.worker_idle_share"] = ratio(idle, rounds);
    systemLayerTimes(opt, res);
    res.layer["sim.events"] = round_events;
    res.layer["sim.events_per_op"] = ratio(round_events, counts.ops);
    res.layer["sim.ns_per_event"] = ratio(totalNs(rec, "sim.run"),
                                          round_events);

    // One job of each recipe feeds the op-source and tag probes.
    std::vector<JobSpec> recipes;
    for (const Campaign &c : cs) {
        for (const JobSpec &job : c.grid) {
            bool seen = false;
            for (const JobSpec &r : recipes)
                seen = seen || r.workload == job.workload;
            if (!seen)
                recipes.push_back(job);
        }
    }
    probeSources(recipes, opt, res);
    probeQueue(std::size_t(perf::median(depths)), opt, res);
    probeParallel(recipes.at(0), opt.threads, 3, res);
}

} // namespace perfbench
