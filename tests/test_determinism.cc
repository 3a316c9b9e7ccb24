/**
 * @file
 * Determinism regression tests: the same SystemConfig + seed must
 * reproduce the exact same simulation — byte-identical stats dumps —
 * across repeated runs.  This is the invariant the parallel campaign
 * runner relies on: scheduling jobs across threads cannot change any
 * row because each job is a pure function of its spec.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "coherence/protocol.hh"
#include "harness/workload_factory.hh"
#include "system/system.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

/** Build, run, and dump one configuration; returns both dumps. */
struct RunOutput
{
    std::string text;
    std::string json;
    Tick ticks;
};

RunOutput
runOnce(const std::string &protocol, const std::string &workload,
        unsigned procs, std::uint64_t seed,
        const FaultPlan &fault = FaultPlan{},
        const TopologyConfig &topo = TopologyConfig::singleBus(),
        unsigned simThreads = 1)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.numProcessors = procs;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    cfg.fault = fault;
    cfg.topology = topo;
    cfg.simThreads = simThreads;
    System sys(cfg);
    for (unsigned i = 0; i < procs; ++i) {
        WorkloadSlot slot;
        slot.procId = i;
        slot.numProcs = procs;
        slot.ops = 400;
        slot.seed = seed;
        slot.protocol = protocol;
        std::string err;
        auto w = makeWorkload(workload, slot, &err);
        EXPECT_NE(w, nullptr) << err;
        sys.addProcessor(std::move(w));
    }
    sys.start();
    RunOutput out;
    out.ticks = sys.run();
    EXPECT_TRUE(sys.allDone());
    std::ostringstream text, json;
    sys.dumpStats(text);
    sys.dumpStatsJson(json);
    out.text = text.str();
    out.json = json.str();
    return out;
}

} // namespace

TEST(Determinism, SameConfigSameSeedIsByteIdentical)
{
    for (const char *proto : {"bitar", "classic_wt", "dragon"}) {
        RunOutput a = runOnce(proto, "random_sharing", 4, 42);
        RunOutput b = runOnce(proto, "random_sharing", 4, 42);
        EXPECT_EQ(a.ticks, b.ticks) << proto;
        EXPECT_EQ(a.text, b.text) << proto;
        EXPECT_EQ(a.json, b.json) << proto;
        EXPECT_FALSE(a.text.empty());
    }
}

TEST(Determinism, LockWorkloadIsByteIdentical)
{
    RunOutput a = runOnce("bitar", "critical_section", 3, 7);
    RunOutput b = runOnce("bitar", "critical_section", 3, 7);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.json, b.json);
}

TEST(Determinism, TwoSwitchRunsAreByteIdentical)
{
    // The multi-interconnect machine must be exactly as reproducible as
    // the single bus: two event queues' worth of interleaving is still
    // a pure function of the configuration.
    for (const char *wl : {"service_queue", "random_sharing"}) {
        RunOutput a = runOnce("bitar", wl, 4, 42, FaultPlan{},
                              TopologyConfig::twoSwitch());
        RunOutput b = runOnce("bitar", wl, 4, 42, FaultPlan{},
                              TopologyConfig::twoSwitch());
        EXPECT_EQ(a.ticks, b.ticks) << wl;
        EXPECT_EQ(a.text, b.text) << wl;
        EXPECT_EQ(a.json, b.json) << wl;
        EXPECT_NE(a.text.find("sync_bus."), std::string::npos) << wl;
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    RunOutput a = runOnce("bitar", "random_sharing", 4, 1);
    RunOutput b = runOnce("bitar", "random_sharing", 4, 2);
    // Different reference streams must not produce the same dump
    // (otherwise the seed axis of a sweep is meaningless).
    EXPECT_NE(a.text, b.text);
}

namespace
{

FaultPlan
faultPlan(double rate, std::uint64_t seed)
{
    FaultPlan fp;
    fp.rate = rate;
    fp.seed = seed;
    return fp;
}

} // namespace

TEST(Determinism, FaultInjectedRunsAreByteIdentical)
{
    // Faults must be exactly as reproducible as clean runs: the fault
    // PRNG is part of the configuration, not of the host environment.
    for (const char *wl : {"random_sharing", "critical_section"}) {
        RunOutput a = runOnce("bitar", wl, 4, 42, faultPlan(0.2, 7));
        RunOutput b = runOnce("bitar", wl, 4, 42, faultPlan(0.2, 7));
        EXPECT_EQ(a.ticks, b.ticks) << wl;
        EXPECT_EQ(a.text, b.text) << wl;
        EXPECT_EQ(a.json, b.json) << wl;
        EXPECT_NE(a.text.find("faults."), std::string::npos) << wl;
    }
}

TEST(Determinism, DifferentFaultSeedsDiverge)
{
    RunOutput a = runOnce("bitar", "random_sharing", 4, 42,
                          faultPlan(0.2, 1));
    RunOutput b = runOnce("bitar", "random_sharing", 4, 42,
                          faultPlan(0.2, 2));
    EXPECT_NE(a.text, b.text);
}

TEST(Determinism, FaultFreePlanMatchesPlainRun)
{
    // rate 0 must not merely behave the same — it must be the very
    // same simulation, stats tree included.
    RunOutput a = runOnce("bitar", "random_sharing", 4, 42);
    RunOutput b = runOnce("bitar", "random_sharing", 4, 42,
                          faultPlan(0.0, 99));
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.json, b.json);
}

// --------------------------------------------------------------------
// Serial vs sharded-parallel: --sim-threads must never change a result
// --------------------------------------------------------------------

TEST(ParallelDeterminism, EveryProtocolMatchesSerialOnDomainLocal)
{
    // The strongest form of the parallel-engine contract: for every
    // registered protocol family, the genuinely sharded two-switch run
    // produces byte-identical stats to the serial engine at every
    // thread count.
    for (const std::string &proto : ProtocolRegistry::names()) {
        RunOutput serial =
            runOnce(proto, "domain_local", 8, 42, FaultPlan{},
                    TopologyConfig::twoSwitch(), 1);
        for (unsigned threads : {2u, 4u}) {
            RunOutput sharded =
                runOnce(proto, "domain_local", 8, 42, FaultPlan{},
                        TopologyConfig::twoSwitch(), threads);
            EXPECT_EQ(serial.ticks, sharded.ticks)
                << proto << " @" << threads;
            EXPECT_EQ(serial.text, sharded.text)
                << proto << " @" << threads;
            EXPECT_EQ(serial.json, sharded.json)
                << proto << " @" << threads;
        }
        EXPECT_FALSE(serial.text.empty()) << proto;
    }
}

TEST(ParallelDeterminism, EveryTopologyPresetMatchesSerial)
{
    // Presets the partition rejects (single_bus) must fall back to the
    // serial path and still match trivially; two_switch runs sharded.
    for (const std::string &preset : TopologyConfig::names()) {
        TopologyConfig topo;
        ASSERT_TRUE(TopologyConfig::fromName(preset, &topo)) << preset;
        RunOutput serial = runOnce("bitar", "domain_local", 4, 7,
                                   FaultPlan{}, topo, 1);
        RunOutput sharded = runOnce("bitar", "domain_local", 4, 7,
                                    FaultPlan{}, topo, 4);
        EXPECT_EQ(serial.ticks, sharded.ticks) << preset;
        EXPECT_EQ(serial.text, sharded.text) << preset;
        EXPECT_EQ(serial.json, sharded.json) << preset;
    }
}

TEST(ParallelDeterminism, CoupledWorkloadFallsBackAndMatches)
{
    // random_sharing couples the domains through its shared region, so
    // the partition must refuse and the run must be the serial run.
    RunOutput serial = runOnce("bitar", "random_sharing", 4, 42,
                               FaultPlan{}, TopologyConfig::twoSwitch(),
                               1);
    RunOutput sharded = runOnce("bitar", "random_sharing", 4, 42,
                                FaultPlan{}, TopologyConfig::twoSwitch(),
                                4);
    EXPECT_EQ(serial.text, sharded.text);
    EXPECT_EQ(serial.json, sharded.json);
}

TEST(ParallelDeterminism, FaultInjectedRunsMatchSerial)
{
    // Fault injection pins the run to the serial engine (the fault
    // injector's PRNG observation order is global), so --sim-threads
    // must be a no-op: identical documents, identical fault stream.
    for (const char *wl : {"random_sharing", "domain_local"}) {
        RunOutput serial = runOnce("bitar", wl, 4, 42, faultPlan(0.2, 7),
                                   TopologyConfig::twoSwitch(), 1);
        RunOutput sharded = runOnce("bitar", wl, 4, 42, faultPlan(0.2, 7),
                                    TopologyConfig::twoSwitch(), 4);
        EXPECT_EQ(serial.ticks, sharded.ticks) << wl;
        EXPECT_EQ(serial.text, sharded.text) << wl;
        EXPECT_EQ(serial.json, sharded.json) << wl;
        EXPECT_NE(serial.text.find("faults."), std::string::npos) << wl;
    }
}

TEST(ParallelDeterminism, ThreadCountIsNotAnAxis)
{
    // Two different thread counts > 1 must agree with each other too
    // (not merely each with serial): the partition decision and the
    // window schedule depend only on the configuration.
    RunOutput two = runOnce("dragon", "domain_local", 8, 11, FaultPlan{},
                            TopologyConfig::twoSwitch(), 2);
    RunOutput four = runOnce("dragon", "domain_local", 8, 11, FaultPlan{},
                             TopologyConfig::twoSwitch(), 4);
    EXPECT_EQ(two.ticks, four.ticks);
    EXPECT_EQ(two.text, four.text);
    EXPECT_EQ(two.json, four.json);
}
