/**
 * @file
 * Topology-layer tests: preset construction and validation, AddressMap
 * routing boundaries, the Figure 11 traffic-segregation invariant on a
 * real two-switch System, fault injection scoped to one interconnect,
 * and campaign determinism across worker counts on multi-switch grids.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/campaign.hh"
#include "harness/sweep.hh"
#include "harness/workload_factory.hh"
#include "proc/workloads/random_sharing.hh"
#include "proc/workloads/service_queue.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "system/topology_spec.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

/** Boundary of the two_switch preset's sync partition (16 MiB). */
constexpr Addr kSplit = 0x0100'0000;

/** Run check() and return its failure message ("" when valid). */
std::string
checkMessage(const TopologyConfig &topo)
{
    std::string err;
    return topo.check(&err) ? "" : err;
}

} // namespace

TEST(Topology, PresetsAreValid)
{
    EXPECT_EQ(checkMessage(TopologyConfig::singleBus()), "");
    EXPECT_EQ(checkMessage(TopologyConfig::twoSwitch()), "");

    EXPECT_TRUE(TopologyConfig::singleBus().isSingleBus());
    EXPECT_FALSE(TopologyConfig::twoSwitch().isSingleBus());

    TopologyConfig two = TopologyConfig::twoSwitch();
    ASSERT_EQ(two.switches.size(), 2u);
    EXPECT_EQ(two.switches[0].name, "sync_bus");
    EXPECT_EQ(two.switches[1].name, "data_switch");
    EXPECT_EQ(two.syncSwitch(), 0u);
    EXPECT_EQ(two.indexOf("data_switch"), 1u);
    EXPECT_EQ(two.indexOf("nonesuch"), two.switches.size());
}

TEST(Topology, FromNameCoversEveryAdvertisedPreset)
{
    for (const auto &name : TopologyConfig::names()) {
        TopologyConfig topo;
        EXPECT_TRUE(TopologyConfig::fromName(name, &topo)) << name;
        EXPECT_EQ(checkMessage(topo), "") << name;
    }
    TopologyConfig topo;
    EXPECT_FALSE(TopologyConfig::fromName("ring", &topo));
}

TEST(Topology, CheckRejectsGapsAndOverlaps)
{
    // A hole below the first range.
    TopologyConfig topo = TopologyConfig::twoSwitch();
    topo.switches[0].ranges = {{0x1000, kSplit}};
    EXPECT_NE(checkMessage(topo).find("gap below"), std::string::npos);

    // A hole between the two partitions.
    topo = TopologyConfig::twoSwitch();
    topo.switches[1].ranges = {{kSplit + 0x1000, 0}};
    EXPECT_NE(checkMessage(topo).find("gap at"), std::string::npos);

    // A bounded map that does not reach the end of the space.
    topo = TopologyConfig::twoSwitch();
    topo.switches[1].ranges = {{kSplit, kSplit * 2}};
    EXPECT_NE(checkMessage(topo).find("gap above"), std::string::npos);

    // Overlapping partitions: both switches claim [kSplit-0x100, ...).
    topo = TopologyConfig::twoSwitch();
    topo.switches[1].ranges = {{kSplit - 0x100, 0}};
    std::string msg = checkMessage(topo);
    EXPECT_NE(msg.find("overlap"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sync_bus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("data_switch"), std::string::npos) << msg;
}

TEST(Topology, CheckRejectsMalformedSwitches)
{
    TopologyConfig topo;
    topo.switches.clear();
    EXPECT_NE(checkMessage(topo).find("at least one switch"),
              std::string::npos);

    topo = TopologyConfig::twoSwitch();
    topo.switches[1].name = "sync_bus";
    EXPECT_NE(checkMessage(topo).find("duplicate switch name"),
              std::string::npos);

    topo = TopologyConfig::twoSwitch();
    topo.switches[0].carries = 0;
    EXPECT_NE(checkMessage(topo).find("bad carries mask"),
              std::string::npos);

    // Nobody carries sync traffic: the machine could never lock.
    topo = TopologyConfig::twoSwitch();
    topo.switches[0].carries = trafficClassBit(TrafficClass::Data);
    EXPECT_NE(checkMessage(topo).find("traffic class"),
              std::string::npos);

    topo = TopologyConfig::twoSwitch();
    topo.switches[0].ranges = {{kSplit, kSplit}}; // empty range
    EXPECT_NE(checkMessage(topo).find("empty range"), std::string::npos);
}

TEST(Topology, ValidateIsFatalOnBadTopology)
{
    TopologyConfig topo = TopologyConfig::twoSwitch();
    topo.switches[0].ranges = {{0x1000, kSplit}};
    ScopedFatalThrow guard;
    EXPECT_THROW(topo.validate(), FatalError);
}

TEST(Topology, SpecAddressesMustBeUnsignedIntegers)
{
    auto parse = [](const std::string &lo, TopologyConfig *topo,
                    std::string *err) {
        std::string jerr;
        Json doc = Json::parse(
            R"({"name": "t", "switches": [
                  {"name": "a", "carries": "all",
                   "ranges": [[)" + lo + R"(, "0x1000000"]]},
                  {"name": "b", "carries": "all",
                   "ranges": [["0x1000000", "0x0"]]}]})",
            &jerr);
        EXPECT_TRUE(jerr.empty()) << jerr;
        return topologyFromSpec(doc, topo, err);
    };
    for (const char *bad : {"-5", "0.5", "1e30", "\"-5\"", "\" 0\"",
                            "\"0x10000000000000000\""}) {
        TopologyConfig topo;
        std::string err;
        EXPECT_FALSE(parse(bad, &topo, &err)) << bad;
        EXPECT_NE(err.find("\"ranges\"[0][0]"), std::string::npos)
            << bad << ": " << err;
    }
    for (const char *good : {"0", "\"0\"", "\"0x0\""}) {
        TopologyConfig topo;
        std::string err;
        ASSERT_TRUE(parse(good, &topo, &err)) << good << ": " << err;
        EXPECT_EQ(topo.switches.at(0).ranges.at(0).lo, 0u);
    }
}

TEST(Topology, AddressMapRoutesAtPartitionBoundaries)
{
    AddressMap single(TopologyConfig::singleBus());
    EXPECT_EQ(single.numSwitches(), 1u);
    EXPECT_EQ(single.switchFor(0), 0u);
    EXPECT_EQ(single.switchFor(~Addr(0)), 0u);

    AddressMap two(TopologyConfig::twoSwitch());
    EXPECT_EQ(two.numSwitches(), 2u);
    EXPECT_EQ(two.switchFor(0), 0u);
    EXPECT_EQ(two.switchFor(kSplit - 1), 0u);
    EXPECT_EQ(two.switchFor(kSplit), 1u);    // first data address
    EXPECT_EQ(two.switchFor(kSplit + 1), 1u);
    EXPECT_EQ(two.switchFor(0x20000000), 1u);
    EXPECT_EQ(two.switchFor(~Addr(0)), 1u);  // unbounded tail range
}

TEST(Topology, AddressMapEdgeCases)
{
    // Full space as one explicit [0, end) range: everything routes to
    // the only switch, including both extremes of the address space.
    TopologyConfig full;
    full.preset = "custom";
    full.switches = {{"bus", kAllTraffic, {{0, 0}}, ""}};
    ASSERT_EQ(checkMessage(full), "");
    AddressMap fullMap(full);
    EXPECT_EQ(fullMap.switchFor(0), 0u);
    EXPECT_EQ(fullMap.switchFor(0x8000'0000), 0u);
    EXPECT_EQ(fullMap.switchFor(~Addr(0)), 0u);

    // A zero-length range is rejected outright rather than silently
    // producing an unroutable hole.
    TopologyConfig zero = full;
    zero.switches[0].ranges = {{0x1000, 0x1000}};
    EXPECT_NE(checkMessage(zero).find("empty range"), std::string::npos);

    // Adjacent-but-not-overlapping partitions are valid and route
    // exactly at the seams: hi of one range is the lo of the next.
    constexpr Addr kA = 0x0020'0000;
    constexpr Addr kB = 0x0300'0000;
    TopologyConfig adj;
    adj.preset = "custom";
    adj.switches = {
        {"lo", kAllTraffic, {{0, kA}}, ""},
        {"mid", kAllTraffic, {{kA, kB}}, ""},
        {"hi", kAllTraffic, {{kB, 0}}, ""},
    };
    ASSERT_EQ(checkMessage(adj), "");
    AddressMap map(adj);
    EXPECT_EQ(map.numSwitches(), 3u);
    EXPECT_EQ(map.switchFor(0), 0u);
    EXPECT_EQ(map.switchFor(kA - 1), 0u);
    EXPECT_EQ(map.switchFor(kA), 1u);
    EXPECT_EQ(map.switchFor(kB - 1), 1u);
    EXPECT_EQ(map.switchFor(kB), 2u);
    EXPECT_EQ(map.switchFor(~Addr(0)), 2u);
}

namespace
{

/** Build and run a two_switch System on a factory workload.  Heap
 *  allocated: a System pins internal pointers and must not move. */
std::unique_ptr<System>
runTwoSwitch(const std::string &workload, unsigned procs,
             const FaultPlan &fault = FaultPlan{})
{
    SystemConfig cfg;
    cfg.protocol = "bitar";
    cfg.numProcessors = procs;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    cfg.topology = TopologyConfig::twoSwitch();
    cfg.fault = fault;
    auto sys = std::make_unique<System>(cfg);
    for (unsigned i = 0; i < procs; ++i) {
        WorkloadSlot slot;
        slot.procId = i;
        slot.numProcs = procs;
        slot.ops = 400;
        slot.seed = 42;
        slot.protocol = cfg.protocol;
        std::string err;
        auto w = makeWorkload(workload, slot, &err);
        EXPECT_NE(w, nullptr) << err;
        sys->addProcessor(std::move(w));
    }
    sys->start();
    sys->run();
    EXPECT_TRUE(sys->allDone());
    return sys;
}

} // namespace

TEST(Topology, TwoSwitchSystemSegregatesTrafficClasses)
{
    // Figure 11: the synchronization system and the data system carry
    // disjoint traffic.  The service queue is all-sync; its references
    // must never appear on the data switch, and no data-class message
    // may ride the sync bus.
    auto sys = runTwoSwitch("service_queue", 4);
    ASSERT_EQ(sys->numInterconnects(), 2u);
    Bus &sync_bus = sys->bus(0);
    Bus &data_switch = sys->bus(1);
    EXPECT_EQ(sync_bus.name(), "sync_bus");
    EXPECT_EQ(data_switch.name(), "data_switch");

    EXPECT_GT(sync_bus.classCount(TrafficClass::Sync), 0.0);
    EXPECT_EQ(sync_bus.classCount(TrafficClass::Data), 0.0);
    EXPECT_EQ(data_switch.classCount(TrafficClass::Sync), 0.0);
    EXPECT_EQ(sync_bus.misroutedCount(), 0.0);
    EXPECT_EQ(data_switch.misroutedCount(), 0.0);

    EXPECT_EQ(sys->checker().violations(), 0u);
    EXPECT_EQ(sys->checkStateInvariants(), 0u);
}

TEST(Topology, MixedWorkloadKeepsBothSwitchesBusyAndSegregated)
{
    // Half the processors hammer the shared service queue (sync system),
    // half stream relocated shared data (data system) — both switches
    // see work, neither sees the other's class, nothing is misrouted.
    SystemConfig cfg;
    cfg.protocol = "bitar";
    cfg.numProcessors = 4;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    cfg.topology = TopologyConfig::twoSwitch();
    System sys(cfg);
    for (unsigned i = 0; i < 4; ++i) {
        if (i < 2) {
            ServiceQueueParams q;
            q.operations = 40;
            q.alg = LockAlg::CacheLock;
            q.procId = i;
            sys.addProcessor(std::make_unique<ServiceQueueWorkload>(
                q, i % 2 ? QueueRole::Consumer : QueueRole::Producer));
        } else {
            RandomSharingParams p;
            p.ops = 400;
            p.procId = i;
            p.seed = 42 + i;
            p.sharedBase = 0x20000000; // above the two_switch split
            sys.addProcessor(
                std::make_unique<RandomSharingWorkload>(p));
        }
    }
    sys.start();
    sys.run();
    EXPECT_TRUE(sys.allDone());

    Bus &sync_bus = sys.bus(0);
    Bus &data_switch = sys.bus(1);
    EXPECT_GT(sync_bus.transactions.value(), 0.0);
    EXPECT_GT(data_switch.transactions.value(), 0.0);
    EXPECT_EQ(sync_bus.classCount(TrafficClass::Data), 0.0);
    EXPECT_EQ(data_switch.classCount(TrafficClass::Sync), 0.0);
    EXPECT_EQ(sync_bus.misroutedCount(), 0.0);
    EXPECT_EQ(data_switch.misroutedCount(), 0.0);
    EXPECT_EQ(sys.checkStateInvariants(), 0u);
}

TEST(Topology, RoutingIsByAddressAndMisroutingIsCounted)
{
    // The traffic class is advisory (Section E.2): references route by
    // address, so a workload whose payload lives in the sync partition
    // still runs correctly — the data-class transactions ride the sync
    // bus and the misrouted counter reports the placement problem.
    auto sys = runTwoSwitch("producer_consumer", 4);
    Bus &sync_bus = sys->bus(0);
    Bus &data_switch = sys->bus(1);

    EXPECT_GT(sync_bus.classCount(TrafficClass::Data), 0.0);
    EXPECT_GT(sync_bus.misroutedCount(), 0.0);
    EXPECT_EQ(data_switch.classCount(TrafficClass::Sync), 0.0);
    EXPECT_EQ(sys->checker().violations(), 0u);
    EXPECT_EQ(sys->checkStateInvariants(), 0u);
}

TEST(Topology, PerInterconnectStatNamespacesAreDisjoint)
{
    auto sys = runTwoSwitch("service_queue", 4);
    std::ostringstream os;
    sys->dumpStats(os);
    std::string dump = os.str();
    EXPECT_NE(dump.find("system.sync_bus."), std::string::npos);
    EXPECT_NE(dump.find("system.data_switch."), std::string::npos);
    EXPECT_NE(dump.find("system.sync_bus.memory."), std::string::npos);
    EXPECT_NE(dump.find("system.sync_bus.traffic.sync"),
              std::string::npos);
    // The single-bus legacy names must NOT leak into a two-switch dump.
    EXPECT_EQ(dump.find("system.bus."), std::string::npos);
    EXPECT_EQ(dump.find("system.memory."), std::string::npos);
}

TEST(Topology, FaultTargetScopesInjectionToOneInterconnect)
{
    FaultPlan fault;
    fault.rate = 0.2;
    fault.seed = 7;
    fault.target = "sync_bus";
    auto sys = runTwoSwitch("service_queue", 4, fault);

    // Only the targeted interconnect injects faults.
    EXPECT_NE(sys->bus(0).faults(), nullptr);
    EXPECT_EQ(sys->bus(1).faults(), nullptr);

    // And despite the injected faults the run still completes cleanly.
    EXPECT_EQ(sys->checker().violations(), 0u);
    EXPECT_EQ(sys->checkStateInvariants(), 0u);
}

TEST(Topology, UntargetedFaultPlanWrapsEveryInterconnect)
{
    FaultPlan fault;
    fault.rate = 0.05;
    fault.seed = 7;
    auto sys = runTwoSwitch("service_queue", 2, fault);
    EXPECT_NE(sys->bus(0).faults(), nullptr);
    EXPECT_NE(sys->bus(1).faults(), nullptr);
}

namespace
{

/** Run a small mixed-topology campaign at the given worker count. */
CampaignResult
runCampaign(unsigned jobs)
{
    SweepSpec spec;
    spec.name = "topology-determinism";
    spec.protocols = {"bitar", "dragon"};
    spec.workloads = {"service_queue", "random_sharing"};
    spec.topologies = {"single_bus", "two_switch"};
    spec.processorCounts = {2, 4};
    spec.opsPerProcessor = 200;
    std::vector<JobSpec> grid;
    std::string err;
    EXPECT_TRUE(spec.expand(&grid, &err)) << err;
    CampaignRunner runner;
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    return runner.run(grid, opts);
}

} // namespace

TEST(Topology, CampaignRowsAreIdenticalAtAnyWorkerCount)
{
    CampaignResult serial = runCampaign(1);
    CampaignResult parallel = runCampaign(4);
    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    ASSERT_EQ(serial.rows.size(), 16u); // 2 protos x 2 wl x 2 topo x 2 p
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
        const JobResult &a = serial.rows[i];
        const JobResult &b = parallel.rows[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.status, b.status) << a.name;
        EXPECT_EQ(a.ticks, b.ticks) << a.name;
        EXPECT_EQ(a.memOps, b.memOps) << a.name;
        EXPECT_EQ(a.stats, b.stats) << a.name;
        EXPECT_TRUE(a.ok()) << a.name << ": " << a.error;
    }
    // The two_switch rows really ran two interconnects.
    bool saw_two_switch = false;
    for (const JobResult &row : serial.rows) {
        if (row.name.find("/two_switch/") == std::string::npos)
            continue;
        saw_two_switch = true;
        EXPECT_NE(row.stats.find("system.sync_bus.transactions"),
                  row.stats.end()) << row.name;
        EXPECT_EQ(row.stats.count("system.bus.transactions"), 0u)
            << row.name;
    }
    EXPECT_TRUE(saw_two_switch);
}
