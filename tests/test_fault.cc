/**
 * @file
 * Fault-injection subsystem tests: FaultPlan parsing/validation, the
 * forward-progress watchdog, recovery under every fault kind (checker
 * stays clean, runs still converge), deterministic faulty replays, the
 * busy-wait-register ablation retry path, and the campaign runner's
 * structured "livelock" rows for deliberately wedged systems.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/fault_injector.hh"
#include "fault/watchdog.hh"
#include "harness/campaign.hh"
#include "harness/campaign_io.hh"
#include "harness/sweep.hh"
#include "harness/workload_factory.hh"
#include "system/system.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

FaultPlan
plan(double rate, std::vector<std::string> kinds = {},
     std::uint64_t seed = 1)
{
    FaultPlan p;
    p.rate = rate;
    p.kinds = std::move(kinds);
    p.seed = seed;
    return p;
}

SystemConfig
faultyConfig(const std::string &protocol, const FaultPlan &fp)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.numProcessors = 4;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    cfg.fault = fp;
    return cfg;
}

void
attachWorkloads(System &sys, const std::string &workload,
                std::uint64_t ops, std::uint64_t seed)
{
    const SystemConfig &cfg = sys.config();
    for (unsigned i = 0; i < cfg.numProcessors; ++i) {
        WorkloadSlot slot;
        slot.procId = i;
        slot.numProcs = cfg.numProcessors;
        slot.ops = ops;
        slot.seed = seed;
        slot.blockBytes = Addr(cfg.cache.geom.blockWords) * bytesPerWord;
        slot.protocol = cfg.protocol;
        std::string err;
        auto w = makeWorkload(workload, slot, &err);
        ASSERT_NE(w, nullptr) << err;
        sys.addProcessor(std::move(w));
    }
}

} // namespace

// --------------------------------------------------------------------
// FaultPlan parsing and validation
// --------------------------------------------------------------------

TEST(FaultPlan, KindNamesRoundTrip)
{
    for (unsigned i = 0; i < unsigned(FaultKind::NumKinds); ++i) {
        FaultKind k = FaultKind(i);
        FaultKind parsed;
        ASSERT_TRUE(faultKindFromName(faultKindName(k), &parsed));
        EXPECT_EQ(parsed, k);
    }
    EXPECT_FALSE(faultKindFromName("cosmic_ray", nullptr));
}

TEST(FaultPlan, EmptyKindListMeansEveryKind)
{
    EXPECT_EQ(plan(0.5).kindMask(),
              (1u << unsigned(FaultKind::NumKinds)) - 1);
    EXPECT_EQ(plan(0.5, {"nak"}).kindMask(),
              1u << unsigned(FaultKind::Nak));
}

TEST(FaultPlan, ChecksRejectNonsense)
{
    std::string err;
    EXPECT_FALSE(plan(-0.1).check(&err));
    EXPECT_NE(err.find("outside [0, 1]"), std::string::npos) << err;

    EXPECT_FALSE(plan(1.5).check(&err));
    EXPECT_NE(err.find("outside [0, 1]"), std::string::npos) << err;

    EXPECT_FALSE(plan(0.5, {"cosmic_ray"}).check(&err));
    EXPECT_NE(err.find("unknown fault kind 'cosmic_ray'"),
              std::string::npos) << err;
    // The message must teach the valid vocabulary.
    EXPECT_NE(err.find("nak"), std::string::npos) << err;
    EXPECT_NE(err.find("drop_grant"), std::string::npos) << err;

    FaultPlan p = plan(0.5);
    p.backoffBase = 0;
    EXPECT_FALSE(p.check(&err));
    EXPECT_NE(err.find("backoff base"), std::string::npos) << err;

    p = plan(0.5);
    p.backoffCap = 1; // below the default base of 2
    EXPECT_FALSE(p.check(&err));
    EXPECT_NE(err.find("below the base"), std::string::npos) << err;

    // A disabled plan tolerates the degenerate timing fields.
    p = plan(0.0);
    p.backoffBase = 0;
    EXPECT_TRUE(p.check(&err));
}

TEST(FaultPlan, FromJsonParsesAndRejects)
{
    std::string err;
    Json doc = Json::parse(
        R"({"rate": 0.25, "seed": 9, "kinds": ["nak", "stall"],
            "stall_ticks": 32, "watchdog_window": 5000})", &err);
    ASSERT_TRUE(err.empty()) << err;

    FaultPlan p;
    ASSERT_TRUE(FaultPlan::fromJson(doc, &p, &err)) << err;
    EXPECT_DOUBLE_EQ(p.rate, 0.25);
    EXPECT_EQ(p.seed, 9u);
    EXPECT_EQ(p.kinds, (std::vector<std::string>{"nak", "stall"}));
    EXPECT_EQ(p.stallTicks, 32u);
    EXPECT_EQ(p.watchdogWindow, 5000u);

    Json bad = Json::parse(R"({"rate": 0.1, "kinds": ["warp_core"]})",
                           &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_FALSE(FaultPlan::fromJson(bad, &p, &err));
    EXPECT_NE(err.find("unknown fault kind"), std::string::npos) << err;

    Json unknown = Json::parse(R"({"rats": 0.1})", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_FALSE(FaultPlan::fromJson(unknown, &p, &err));
    EXPECT_NE(err.find("unknown key \"rats\""), std::string::npos) << err;
}

TEST(FaultPlan, JsonRoundTrips)
{
    FaultPlan p = plan(0.125, {"delay_supply"}, 77);
    p.backoffCap = 64;
    std::string err;
    FaultPlan q;
    ASSERT_TRUE(FaultPlan::fromJson(p.toJson(), &q, &err)) << err;
    EXPECT_EQ(q.toJson().dump(0), p.toJson().dump(0));
}

// --------------------------------------------------------------------
// ProgressWatchdog
// --------------------------------------------------------------------

TEST(Watchdog, TripsOnlyAfterAWindowWithoutProgress)
{
    ProgressWatchdog wd("watchdog", 100, nullptr);
    wd.restart(0, 0);
    EXPECT_FALSE(wd.observe(50, 0));   // inside the window
    EXPECT_FALSE(wd.observe(99, 1));   // progress resets the window
    EXPECT_FALSE(wd.observe(150, 1));  // 51 ticks since progress
    EXPECT_TRUE(wd.observe(199, 1));   // 100 ticks, window expired
    EXPECT_FALSE(wd.tripped());        // observe() reports; trip() records

    wd.trip("stuck");
    EXPECT_TRUE(wd.tripped());
    EXPECT_EQ(wd.diagnostic(), "stuck");
    wd.trip("second opinion"); // first trip wins
    EXPECT_EQ(wd.diagnostic(), "stuck");
    EXPECT_EQ(wd.trips.value(), 1.0);
}

TEST(Watchdog, ZeroWindowDisables)
{
    ProgressWatchdog wd("watchdog", 0, nullptr);
    wd.restart(0, 0);
    EXPECT_FALSE(wd.enabled());
    EXPECT_FALSE(wd.observe(1'000'000'000, 0));
}

// --------------------------------------------------------------------
// Recovery: every fault kind, checker stays clean, runs converge
// --------------------------------------------------------------------

TEST(FaultRecovery, EveryKindRecoversCleanly)
{
    struct Case
    {
        const char *kind;
        const char *workload;
        double rate;
    };
    // drop_grant at a moderate rate: at 1.0 every busy-wait re-arb is
    // refused forever and the run (correctly) livelocks.
    const Case cases[] = {
        {"nak", "random_sharing", 0.3},
        {"stall", "random_sharing", 0.3},
        {"delay_supply", "random_sharing", 0.3},
        {"nak", "critical_section", 0.3},
        {"drop_grant", "critical_section", 0.5},
    };
    for (const auto &c : cases) {
        System sys(faultyConfig("bitar", plan(c.rate, {c.kind})));
        attachWorkloads(sys, c.workload, 300, 11);
        sys.start();
        sys.run();
        EXPECT_TRUE(sys.allDone()) << c.kind << "/" << c.workload;
        EXPECT_FALSE(sys.watchdogTripped())
            << c.kind << ": " << sys.watchdogDiagnostic();
        EXPECT_EQ(sys.checker().violations(), 0u)
            << c.kind << "/" << c.workload;
        EXPECT_EQ(sys.checkStateInvariants(), 0u)
            << c.kind << "/" << c.workload;

        const FaultInjector *fb = sys.bus().faults();
        ASSERT_NE(fb, nullptr);
        if (std::string(c.kind) != "drop_grant") {
            // Busy-wait grants are rare enough that drop_grant may
            // legitimately find no opportunity; every other kind must
            // have fired at this rate.
            EXPECT_GT(fb->injected.value(), 0.0)
                << c.kind << "/" << c.workload;
        }
        EXPECT_LE(fb->recovered.value(), fb->injected.value()) << c.kind;
    }
}

TEST(FaultRecovery, NakRunCountsBackoffAndRecovers)
{
    System sys(faultyConfig("bitar", plan(0.4, {"nak"}, 3)));
    attachWorkloads(sys, "random_sharing", 300, 5);
    sys.start();
    sys.run();
    ASSERT_TRUE(sys.allDone());

    const FaultInjector *fb = sys.bus().faults();
    ASSERT_NE(fb, nullptr);
    EXPECT_GT(fb->naks.value(), 0.0);
    EXPECT_GT(fb->backoffTicks.value(), 0.0);
    EXPECT_GT(fb->recovered.value(), 0.0);
    EXPECT_LE(fb->recovered.value(), fb->injected.value());
    // Faulty runs register their stats: the flattened tree must carry
    // the new groups for campaign rows.
    EXPECT_EQ(sys.rootStats().lookup("faults.injected"),
              fb->injected.value());
    EXPECT_EQ(sys.rootStats().lookup("retry.backoffTicks"),
              fb->backoffTicks.value());
    EXPECT_EQ(sys.rootStats().lookup("watchdog.trips"), 0.0);
}

TEST(FaultRecovery, CleanRunKeepsStatsTreeUnchanged)
{
    System sys(faultyConfig("bitar", plan(0.0)));
    attachWorkloads(sys, "random_sharing", 100, 5);
    sys.start();
    sys.run();
    ASSERT_TRUE(sys.allDone());
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string dump = os.str();
    EXPECT_EQ(dump.find("faults."), std::string::npos);
    EXPECT_EQ(dump.find("watchdog."), std::string::npos);
    EXPECT_EQ(nullptr, sys.bus().faults());
}

// --------------------------------------------------------------------
// Ablation: no busy-wait register — retry on the bus (cache.cc)
// --------------------------------------------------------------------

namespace
{

double
runAblation(const FaultPlan &fp)
{
    SystemConfig cfg = faultyConfig("bitar", fp);
    cfg.cache.useBusyWaitRegister = false;
    System sys(cfg);
    attachWorkloads(sys, "critical_section", 200, 13);
    sys.start();
    sys.run();
    EXPECT_TRUE(sys.allDone());
    EXPECT_FALSE(sys.watchdogTripped()) << sys.watchdogDiagnostic();
    EXPECT_EQ(sys.checker().violations(), 0u);
    EXPECT_EQ(sys.checkStateInvariants(), 0u);
    double retries = 0;
    for (unsigned i = 0; i < sys.numCaches(); ++i)
        retries += sys.cache(i).lockRetries.value();
    return retries;
}

} // namespace

TEST(Ablation, BusRetryPathConvergesClean)
{
    EXPECT_GT(runAblation(plan(0.0)), 0.0);
}

TEST(Ablation, BusRetryPathConvergesUnderNaks)
{
    EXPECT_GT(runAblation(plan(0.3, {"nak"}, 21)), 0.0);
}

// --------------------------------------------------------------------
// Deliberate livelock: watchdog aborts, campaign reports it
// --------------------------------------------------------------------

TEST(Livelock, WatchdogAbortsInsteadOfHanging)
{
    // Rate 1.0 NAK refuses every tenure: no transaction ever executes,
    // no processor ever retires, yet backoff keeps simulated time
    // moving — exactly the shape only a watchdog can catch.
    FaultPlan fp = plan(1.0, {"nak"});
    fp.watchdogWindow = 4000;
    System sys(faultyConfig("bitar", fp));
    attachWorkloads(sys, "critical_section", 100, 1);
    sys.start();
    Tick end = sys.run();
    EXPECT_TRUE(sys.watchdogTripped());
    EXPECT_FALSE(sys.allDone());
    EXPECT_GE(end, fp.watchdogWindow);
    const std::string &d = sys.watchdogDiagnostic();
    EXPECT_NE(d.find("no processor retired"), std::string::npos) << d;
    EXPECT_NE(d.find("retired:"), std::string::npos) << d;
    EXPECT_EQ(sys.checker().violations(), 0u);
}

TEST(Livelock, CampaignRowIsStructured)
{
    SweepSpec spec;
    spec.protocols = {"bitar", "illinois"};
    spec.workloads = {"critical_section"};
    spec.processorCounts = {2};
    spec.frames = {64};
    spec.opsPerProcessor = 100;
    spec.faultRates = {1.0};
    spec.faultKinds = {"nak"};
    spec.faultBase.watchdogWindow = 4000;

    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_NE(jobs[0].name.find("/fr1/fs1"), std::string::npos)
        << jobs[0].name;

    CampaignRunner runner;
    CampaignRunner::Options one, four;
    one.jobs = 1;
    four.jobs = 4;
    CampaignResult a = runner.run(jobs, one);
    CampaignResult b = runner.run(jobs, four);

    ASSERT_EQ(a.rows.size(), 2u);
    for (const auto &r : a.rows) {
        EXPECT_EQ(r.status, "livelock") << r.name << ": " << r.error;
        EXPECT_NE(r.error.find("no processor retired"),
                  std::string::npos) << r.error;
        EXPECT_GT(r.firstViolationTick, 0u);
        EXPECT_EQ(r.failingStat, "system.watchdog.trips");
        EXPECT_EQ(r.stats.at("system.watchdog.trips"), 1.0);
        EXPECT_FALSE(r.ok());
    }
    // Row-for-row identical at any --jobs level, serialization included
    // (wall-clock fields differ, so compare the deterministic parts).
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].name, b.rows[i].name);
        EXPECT_EQ(a.rows[i].status, b.rows[i].status);
        EXPECT_EQ(a.rows[i].error, b.rows[i].error);
        EXPECT_EQ(a.rows[i].ticks, b.rows[i].ticks);
        EXPECT_EQ(a.rows[i].firstViolationTick,
                  b.rows[i].firstViolationTick);
        EXPECT_EQ(a.rows[i].stats, b.rows[i].stats);
    }
}

TEST(Livelock, RowSurvivesJsonRoundTrip)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"critical_section"};
    spec.processorCounts = {2};
    spec.opsPerProcessor = 100;
    spec.faultRates = {1.0};
    spec.faultKinds = {"nak"};
    spec.faultBase.watchdogWindow = 4000;

    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    CampaignResult run = CampaignRunner().run(jobs);
    run.name = "livelock";
    run.specJson = spec.toJson();

    CampaignResult loaded;
    ASSERT_TRUE(campaignFromJson(campaignToJson(run), &loaded, &err))
        << err;
    ASSERT_EQ(loaded.rows.size(), 1u);
    EXPECT_EQ(loaded.rows[0].status, "livelock");
    EXPECT_EQ(loaded.rows[0].firstViolationTick,
              run.rows[0].firstViolationTick);
    EXPECT_EQ(loaded.rows[0].failingStat, "system.watchdog.trips");
}

// --------------------------------------------------------------------
// Sweep integration: fault axes expand, validate, and stay fault-free
// by default
// --------------------------------------------------------------------

TEST(FaultSweep, DefaultsAreFaultFree)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_FALSE(jobs[0].config.fault.enabled());
    EXPECT_EQ(jobs[0].name.find("/fr"), std::string::npos);
}

TEST(FaultSweep, ZeroRateCollapsesFaultSeedAxis)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.faultRates = {0.0, 0.1};
    spec.faultSeeds = {1, 2, 3};
    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    // One fault-free row + 0.1 x three fault seeds.
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].name.find("/fr"), std::string::npos);
    EXPECT_NE(jobs[1].name.find("/fr0.1/fs1"), std::string::npos)
        << jobs[1].name;
    EXPECT_NE(jobs[3].name.find("/fr0.1/fs3"), std::string::npos)
        << jobs[3].name;
}

TEST(FaultSweep, RejectsBadFaultAxes)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.faultRates = {2.0};
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("outside [0, 1]"), std::string::npos) << err;

    spec.faultRates = {0.1};
    spec.faultKinds = {"gremlins"};
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("unknown fault kind 'gremlins'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("nak"), std::string::npos) << err;
}

TEST(FaultSweep, SpecJsonCarriesFaultAxes)
{
    std::string err;
    Json doc = Json::parse(
        R"({"protocols": ["bitar"], "workloads": ["random_sharing"],
            "fault_rates": [0.05], "fault_seeds": [7],
            "fault_kinds": ["nak", "stall"],
            "fault": {"stall_ticks": 24, "watchdog_window": 9000}})",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    SweepSpec spec;
    ASSERT_TRUE(SweepSpec::fromJson(doc, &spec, &err)) << err;
    EXPECT_EQ(spec.faultRates, (std::vector<double>{0.05}));
    EXPECT_EQ(spec.faultKinds,
              (std::vector<std::string>{"nak", "stall"}));
    EXPECT_EQ(spec.faultBase.stallTicks, 24u);

    std::vector<JobSpec> jobs;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    ASSERT_EQ(jobs.size(), 1u);
    const FaultPlan &fp = jobs[0].config.fault;
    EXPECT_DOUBLE_EQ(fp.rate, 0.05);
    EXPECT_EQ(fp.seed, 7u);
    EXPECT_EQ(fp.stallTicks, 24u);
    EXPECT_EQ(fp.watchdogWindow, 9000u);
    EXPECT_EQ(fp.kinds, (std::vector<std::string>{"nak", "stall"}));

    // The manifest echo keeps the fault axes.
    Json echo = spec.toJson();
    EXPECT_TRUE(echo.has("fault_rates"));
    EXPECT_TRUE(echo.has("fault"));
}
