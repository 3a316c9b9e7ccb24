/**
 * @file
 * System-level tests: construction, run loop, invariant scanner
 * (positive and negative), statistics dump, and config validation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include <algorithm>

#include "proc/workloads/random_sharing.hh"
#include "system/scenario.hh"

using namespace csync;

namespace
{

SystemConfig
cfg(const std::string &proto = "bitar", unsigned procs = 2)
{
    SystemConfig c;
    c.protocol = proto;
    c.numProcessors = procs;
    c.cache.geom.frames = 16;
    c.cache.geom.blockWords = 4;
    return c;
}

} // namespace

TEST(System, ConstructsEveryRegisteredProtocol)
{
    for (const auto &name : ProtocolRegistry::names()) {
        System sys(cfg(name));
        EXPECT_EQ(sys.numCaches(), 2u) << name;
    }
}

TEST(System, RegistryKnowsAllTenProtocols)
{
    auto names = ProtocolRegistry::names();
    for (const char *want :
         {"bitar", "goodman", "synapse", "illinois", "yen", "berkeley",
          "dragon", "firefly", "rudolph_segall", "classic_wt"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << want;
    }
    EXPECT_EQ(ProtocolRegistry::table1Order().size(), 6u);
}

TEST(System, DirectoryKindComesFromProtocol)
{
    System bitar(cfg("bitar"));
    EXPECT_EQ(bitar.cache(0).directory().kind(),
              DirectoryKind::NonIdenticalDual);
    System berkeley(cfg("berkeley"));
    EXPECT_EQ(berkeley.cache(0).directory().kind(),
              DirectoryKind::DualPortedRead);
}

TEST(System, RunDrivesProcessorsToCompletion)
{
    System sys(cfg("illinois", 4));
    for (unsigned i = 0; i < 4; ++i) {
        RandomSharingParams p;
        p.ops = 300;
        p.procId = i;
        p.seed = 7;
        sys.addProcessor(std::make_unique<RandomSharingWorkload>(p));
    }
    sys.start();
    Tick end = sys.run();
    EXPECT_TRUE(sys.allDone());
    EXPECT_GT(end, 0u);
    EXPECT_EQ(sys.checker().violations(), 0u);
    EXPECT_EQ(sys.checkStateInvariants(), 0u);
}

TEST(System, InvariantScannerCatchesTwoWriters)
{
    System sys(cfg("bitar", 2));
    sys.cache(0).installFrameForTest(0x1000, WrSrcDty);
    sys.cache(1).installFrameForTest(0x1000, WrDty);
    std::string why;
    EXPECT_GT(sys.checkStateInvariants(&why), 0u);
    EXPECT_NE(why.find("writable"), std::string::npos);
}

TEST(System, InvariantScannerCatchesTwoSources)
{
    System sys(cfg("bitar", 2));
    sys.cache(0).installFrameForTest(0x1000, RdSrcCln);
    sys.cache(1).installFrameForTest(0x1000, RdSrcCln);
    std::string why;
    EXPECT_GT(sys.checkStateInvariants(&why), 0u);
    EXPECT_NE(why.find("sources"), std::string::npos);
}

TEST(System, InvariantScannerCatchesDivergentCopies)
{
    System sys(cfg("bitar", 2));
    std::vector<Word> a{1, 1, 1, 1}, b{2, 2, 2, 2};
    sys.cache(0).installFrameForTest(0x1000, Rd, &a);
    sys.cache(1).installFrameForTest(0x1000, RdSrcDty, &b);
    EXPECT_GT(sys.checkStateInvariants(), 0u);
}

TEST(System, InvariantScannerAcceptsConsistentState)
{
    System sys(cfg("bitar", 2));
    std::vector<Word> a{0, 0, 0, 0};
    sys.cache(0).installFrameForTest(0x1000, Rd, &a);
    sys.cache(1).installFrameForTest(0x1000, RdSrcCln, &a);
    EXPECT_EQ(sys.checkStateInvariants(), 0u);
}

TEST(System, StatsDumpIsComprehensive)
{
    System sys(cfg());
    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("system.bus.transactions"), std::string::npos);
    EXPECT_NE(out.find("system.memory.blockReads"), std::string::npos);
    EXPECT_NE(out.find("system.cache0.accesses"), std::string::npos);
    EXPECT_NE(out.find("system.checker.violations"), std::string::npos);
}

TEST(System, RunStopsAtTickBound)
{
    System sys(cfg("bitar", 1));
    // A workload that never finishes: spin on an always-zero flag.
    RandomSharingParams p;
    p.ops = 1000000000ull;
    sys.addProcessor(std::make_unique<RandomSharingWorkload>(p));
    sys.start();
    Tick end = sys.run(5000);
    EXPECT_FALSE(sys.allDone());
    EXPECT_GE(end, 5000u);
    EXPECT_LT(end, 100000u);
}

TEST(SystemDeath, BadConfigIsFatal)
{
    SystemConfig c = cfg();
    c.cache.geom.blockWords = 3;    // not a power of two
    EXPECT_DEATH({ System sys(c); }, "power of two");
}

TEST(System, DerivedCacheFormulas)
{
    Scenario s(cfg("illinois", 1));
    System &sys = s.system();
    EXPECT_TRUE(s.tryRun(0, MemOp{OpType::Read, 0x1000, 0, false}));  // miss
    EXPECT_TRUE(s.tryRun(0, MemOp{OpType::Read, 0x1000, 0, false}));  // hit
    EXPECT_TRUE(s.tryRun(0, MemOp{OpType::Read, 0x1008, 0, false}));  // hit
    EXPECT_NEAR(sys.rootStats().lookup("cache0.hitRatio"), 2.0 / 3.0,
                1e-9);
    EXPECT_NEAR(sys.rootStats().lookup("cache0.busPerAccess"), 1.0 / 3.0,
                1e-9);
}

TEST(System, RoundRobinArbitrationIsFair)
{
    // Saturate the bus with every processor writing distinct shared
    // words: round-robin must hand grants out evenly (no starvation).
    System sys(cfg("illinois", 4));
    for (unsigned i = 0; i < 4; ++i) {
        RandomSharingParams p;
        p.ops = 800;
        p.procId = i;
        p.seed = 42 + i;
        p.sharedFraction = 1.0;
        p.writeFraction = 1.0;
        p.thinkMax = 0;          // hammer the bus continuously
        p.sharedBlocks = 8;
        sys.addProcessor(std::make_unique<RandomSharingWorkload>(p));
    }
    sys.start();
    sys.run(10'000'000);
    ASSERT_TRUE(sys.allDone());
    double min_tx = 1e18, max_tx = 0;
    for (unsigned i = 0; i < 4; ++i) {
        double tx = sys.cache(i).busTransactions.value();
        min_tx = std::min(min_tx, tx);
        max_tx = std::max(max_tx, tx);
    }
    // Equal work, fair bus: per-cache transaction counts within 25%.
    EXPECT_GT(min_tx, 0.75 * max_tx);
    EXPECT_EQ(sys.checker().violations(), 0u);
}
