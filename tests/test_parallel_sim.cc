/**
 * @file
 * The sharded engine: the static domain-partition analysis with every
 * serial-fallback reason, and whole-System sharded runs, which run each
 * domain's event loop on its own worker thread (the TSan target: the
 * domains share nothing and meet only at the join).  Their statistics
 * must equal the serial engine's exactly, and each domain's stops (the
 * abort flag, max_ticks, its watchdog, a fatal error) are its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <vector>

#include "harness/workload_factory.hh"
#include "system/domain.hh"
#include "system/system.hh"

using namespace csync;
using namespace csync::harness;

// --------------------------------------------------------------------
// Domain partition analysis + System-level fallback reasons
// --------------------------------------------------------------------

namespace
{

/** A do-nothing workload with a fixed, declared footprint. */
class FootprintWorkload : public Workload
{
  public:
    explicit FootprintWorkload(std::vector<AddrRange> ranges,
                               bool declare = true)
        : ranges_(std::move(ranges)), declare_(declare)
    {
    }

    NextStatus
    next(MemOp &op, Tick &think) override
    {
        if (issued_ >= 4)
            return NextStatus::Finished;
        ++issued_;
        op = MemOp{OpType::Read, ranges_.front().lo, 0, false};
        think = 1;
        return NextStatus::Op;
    }

    void onResult(const MemOp &, const AccessResult &) override {}

    bool
    footprint(std::vector<AddrRange> *out) const override
    {
        if (!declare_)
            return false;
        *out = ranges_;
        return true;
    }

    std::string describe() const override { return "footprint-test"; }
    bool done() const override { return issued_ >= 4; }

  private:
    std::vector<AddrRange> ranges_;
    bool declare_;
    unsigned issued_ = 0;
};

/** A workload that stalls forever (and never wakes). */
class StuckWorkload : public Workload
{
  public:
    explicit StuckWorkload(Addr home) : home_(home) {}

    NextStatus
    next(MemOp &, Tick &) override
    {
        return NextStatus::Stalled;
    }

    void onResult(const MemOp &, const AccessResult &) override {}

    bool
    footprint(std::vector<AddrRange> *out) const override
    {
        out->push_back({home_, home_ + 64});
        return true;
    }

    std::string describe() const override { return "stuck"; }
    bool done() const override { return false; }

  private:
    Addr home_;
};

SystemConfig
twoSwitchConfig(unsigned procs, unsigned threads)
{
    SystemConfig cfg;
    cfg.protocol = "bitar";
    cfg.numProcessors = procs;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    cfg.topology = TopologyConfig::twoSwitch();
    cfg.simThreads = threads;
    return cfg;
}

/** Address wholly inside switch 0 / switch 1 of the two_switch preset
 *  (the split is at 16 MiB). */
constexpr Addr kSwitch0Addr = 0x200000;
constexpr Addr kSwitch1Addr = 0x10000000;

void
addFactoryWorkloads(System &sys, const SystemConfig &cfg,
                    const std::string &recipe, std::uint64_t ops,
                    std::uint64_t seed)
{
    for (unsigned i = 0; i < cfg.numProcessors; ++i) {
        WorkloadSlot slot;
        slot.procId = i;
        slot.numProcs = cfg.numProcessors;
        slot.ops = ops;
        slot.seed = seed;
        slot.blockBytes =
            Addr(cfg.cache.geom.blockWords) * bytesPerWord;
        slot.protocol = cfg.protocol;
        std::string err;
        auto w = makeWorkload(recipe, slot, &err);
        ASSERT_NE(w, nullptr) << err;
        sys.addProcessor(std::move(w));
    }
}

} // namespace

TEST(DomainPartition, SimThreadsOneStaysSerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 1);
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("sim-threads is 1"),
              std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, SingleSwitchTopologyStaysSerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    cfg.topology = TopologyConfig::singleBus();
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{0x1000, 0x1040}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{0x2000, 0x2040}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("single-switch"), std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, IODeviceCouplesTheDomains)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    cfg.withIODevice = true;
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("I/O"), std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, FaultInjectionStaysSerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    cfg.fault.rate = 0.5;
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("fault injection"),
              std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, UndeclaredFootprintStaysSerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}},
        /*declare=*/false));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("declares no footprint"),
              std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, StraddlingFootprintStaysSerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    System sys(cfg);
    // A range crossing the 16 MiB switch boundary fits neither switch.
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{0x00ff0000, 0x01010000}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("straddles"), std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, SpanningFootprintStaysSerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    System sys(cfg);
    // Two ranges each clean, but in different switches: one processor
    // touching both domains couples them.
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64},
                               {kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("spans switches"),
              std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, OneDomainFootprintsStaySerial)
{
    SystemConfig cfg = twoSwitchConfig(2, 4);
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr + 0x1000,
                                kSwitch0Addr + 0x1040}}));
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    EXPECT_NE(sys.serialReason().find("one domain"), std::string::npos)
        << sys.serialReason();
}

TEST(DomainPartition, DisjointTwoDomainFootprintsGoParallel)
{
    SystemConfig cfg = twoSwitchConfig(4, 2);
    System sys(cfg);
    for (unsigned i = 0; i < 4; ++i) {
        Addr base = (i % 2 ? kSwitch1Addr : kSwitch0Addr) + i * 0x1000;
        sys.addProcessor(std::make_unique<FootprintWorkload>(
            std::vector<AddrRange>{{base, base + 64}}));
    }
    sys.start();
    EXPECT_TRUE(sys.parallelActive()) << sys.serialReason();
    ASSERT_EQ(sys.partition().procHome.size(), 4u);
    EXPECT_EQ(sys.partition().procHome[0], 0u);
    EXPECT_EQ(sys.partition().procHome[1], 1u);
    EXPECT_EQ(sys.partition().procHome[2], 0u);
    EXPECT_EQ(sys.partition().procHome[3], 1u);
    EXPECT_EQ(sys.partition().domains, 2u);
    sys.run();
    EXPECT_TRUE(sys.allDone());
    EXPECT_EQ(sys.checker().violations(), 0u);
}

TEST(DomainPartition, DomainLocalRecipeGoesParallel)
{
    SystemConfig cfg = twoSwitchConfig(8, 4);
    System sys(cfg);
    addFactoryWorkloads(sys, cfg, "domain_local", 200, 42);
    sys.start();
    EXPECT_TRUE(sys.parallelActive()) << sys.serialReason();
    sys.run();
    EXPECT_TRUE(sys.allDone());
    EXPECT_EQ(sys.checker().violations(), 0u);
    EXPECT_EQ(sys.checkStateInvariants(), 0u);
}

TEST(DomainPartition, CoupledRecipeFallsBackOnTwoSwitch)
{
    // random_sharing declares a footprint, but its shared region is one
    // block of addresses every processor touches — all homes collapse
    // to a single domain, so the partition refuses.
    SystemConfig cfg = twoSwitchConfig(4, 4);
    System sys(cfg);
    addFactoryWorkloads(sys, cfg, "random_sharing", 100, 7);
    sys.start();
    EXPECT_FALSE(sys.parallelActive());
    sys.run();
    EXPECT_TRUE(sys.allDone());
}

// --------------------------------------------------------------------
// Whole-System parallel runs: stats equality and watchdog coverage
// --------------------------------------------------------------------

namespace
{

struct Dump
{
    std::string text;
    std::string json;
    Tick ticks;
};

Dump
dumpOf(System &sys, Tick ticks)
{
    Dump d;
    d.ticks = ticks;
    std::ostringstream text, json;
    sys.dumpStats(text);
    sys.dumpStatsJson(json);
    d.text = text.str();
    d.json = json.str();
    return d;
}

Dump
runDomainLocal(unsigned procs, unsigned threads, std::uint64_t ops,
               std::uint64_t seed, bool *wasParallel = nullptr)
{
    SystemConfig cfg = twoSwitchConfig(procs, threads);
    System sys(cfg);
    addFactoryWorkloads(sys, cfg, "domain_local", ops, seed);
    sys.start();
    if (wasParallel)
        *wasParallel = sys.parallelActive();
    Tick ticks = sys.run();
    EXPECT_TRUE(sys.allDone());
    return dumpOf(sys, ticks);
}

/** A workload that stalls and wakes itself forever: its domain keeps
 *  executing events but never retires an operation (a livelock). */
class SpinningWorkload : public Workload
{
  public:
    SpinningWorkload(EventQueue *eq, Addr home) : eq_(eq), home_(home) {}

    NextStatus
    next(MemOp &, Tick &) override
    {
        eq_->scheduleIn(50, wake_);
        return NextStatus::Stalled;
    }

    void onResult(const MemOp &, const AccessResult &) override {}
    void setWakeHook(std::function<void()> hook) override { wake_ = hook; }

    bool
    footprint(std::vector<AddrRange> *out) const override
    {
        out->push_back({home_, home_ + 64});
        return true;
    }

    std::string describe() const override { return "spinning"; }
    bool done() const override { return false; }

  private:
    EventQueue *eq_;
    Addr home_;
    std::function<void()> wake_;
};

/** A footprint workload whose third next() call is a fatal error. */
class FatalWorkload : public FootprintWorkload
{
  public:
    explicit FatalWorkload(Addr home)
        : FootprintWorkload({{home, home + 64}})
    {
    }

    NextStatus
    next(MemOp &op, Tick &think) override
    {
        if (++calls_ == 3)
            fatal("shard exploded");
        return FootprintWorkload::next(op, think);
    }

  private:
    unsigned calls_ = 0;
};

/** Add domain_local workloads for slots @p ids of a @p slots-processor
 *  machine (the recipe homes odd slots on switch 1). */
void
addDomainLocalSlots(System &sys, std::initializer_list<unsigned> ids,
                    unsigned slots, std::uint64_t ops)
{
    WorkloadSlot slot;
    slot.numProcs = slots;
    slot.ops = ops;
    slot.seed = 5;
    slot.blockBytes =
        Addr(sys.config().cache.geom.blockWords) * bytesPerWord;
    slot.protocol = sys.config().protocol;
    for (unsigned id : ids) {
        slot.procId = id;
        std::string err;
        auto w = makeWorkload("domain_local", slot, &err);
        ASSERT_NE(w, nullptr) << err;
        sys.addProcessor(std::move(w));
    }
}

} // namespace

TEST(ParallelSystem, StatsMatchSerialExactly)
{
    bool parallel = false;
    Dump serial = runDomainLocal(8, 1, 400, 42);
    Dump sharded = runDomainLocal(8, 4, 400, 42, &parallel);
    EXPECT_TRUE(parallel);
    EXPECT_EQ(serial.ticks, sharded.ticks);
    EXPECT_EQ(serial.text, sharded.text);
    EXPECT_EQ(serial.json, sharded.json);
    EXPECT_FALSE(serial.text.empty());
}

TEST(ParallelSystem, EarlyFinishingShardDoesNotFalseTripWatchdog)
{
    // Shard 0's processors retire a handful of ops and stop; shard 1
    // keeps running far longer with a watchdog window much smaller than
    // the imbalance.  A finished domain is done, not stalled.
    SystemConfig cfg = twoSwitchConfig(4, 2);
    cfg.fault.watchdogWindow = 2000;
    System sys(cfg);
    // Short side: two 4-op workloads on switch 0.
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr + 0x20000,
                                kSwitch0Addr + 0x20040}}));
    // Long side: two domain_local workloads on switch 1 retiring for
    // thousands of ticks.
    addDomainLocalSlots(sys, {1, 3}, 4, 4000);
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    sys.run();
    EXPECT_TRUE(sys.allDone());
    EXPECT_FALSE(sys.watchdogTripped()) << sys.watchdogDiagnostic();
}

TEST(ParallelSystem, StalledShardTripsWithItsReasonWhileOthersFinish)
{
    // Shard 0 livelocks (events, no retirement) while shard 1 retires
    // for far longer than the watchdog window.  Shard 0's own watchdog
    // trips with its reason; shard 1 is not stopped by it and finishes.
    SystemConfig cfg = twoSwitchConfig(4, 2);
    cfg.fault.watchdogWindow = 2000;
    System sys(cfg);
    sys.addProcessor(
        std::make_unique<SpinningWorkload>(&sys.eventq(), kSwitch0Addr));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr + 0x20000,
                                kSwitch0Addr + 0x20040}}));
    addDomainLocalSlots(sys, {1, 3}, 4, 4000);
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    ASSERT_EQ(sys.partition().procHome[0], 0u);
    Tick ticks = sys.run();
    EXPECT_TRUE(sys.watchdogTripped());
    const std::string &diag = sys.watchdogDiagnostic();
    EXPECT_NE(diag.find("no processor retired an operation for 2000 ticks"),
              std::string::npos)
        << diag;
    EXPECT_FALSE(sys.processor(0).done());
    EXPECT_TRUE(sys.processor(1).done());
    for (unsigned i : {2u, 3u}) {
        EXPECT_EQ(sys.partition().procHome[i], 1u);
        EXPECT_TRUE(sys.processor(i).done()) << i;
    }
    EXPECT_GT(ticks, 4 * cfg.fault.watchdogWindow);
}

TEST(ParallelSystem, StuckShardTripsTheWatchdogNotAHang)
{
    // One shard's workload stalls forever while the other finishes: the
    // queues drain with workloads unfinished, and the watchdog must
    // report the deadlock exactly as the serial engine would — across
    // ALL shards, not just shard 0.
    SystemConfig cfg = twoSwitchConfig(2, 2);
    System sys(cfg);
    sys.addProcessor(std::make_unique<StuckWorkload>(kSwitch0Addr));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch1Addr, kSwitch1Addr + 64}}));
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    sys.run(1'000'000);
    EXPECT_FALSE(sys.allDone());
    EXPECT_TRUE(sys.watchdogTripped());
    EXPECT_NE(sys.watchdogDiagnostic().find("drained"), std::string::npos)
        << sys.watchdogDiagnostic();
}

TEST(ParallelSystem, RepeatedParallelRunsAreByteIdentical)
{
    Dump a = runDomainLocal(8, 4, 300, 9);
    Dump b = runDomainLocal(8, 4, 300, 9);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.ticks, b.ticks);
}

TEST(ParallelSystem, AbortFlagStopsAShardedRun)
{
    SystemConfig cfg = twoSwitchConfig(8, 4);
    System sys(cfg);
    addFactoryWorkloads(sys, cfg, "domain_local", 300, 9);
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    std::atomic<bool> abort{true};
    EXPECT_EQ(sys.run(50'000'000, &abort), 0u);
    EXPECT_FALSE(sys.allDone());
    EXPECT_FALSE(sys.watchdogTripped()) << sys.watchdogDiagnostic();

    // Lifting the flag resumes the run where it stopped.
    abort.store(false);
    Dump resumed = dumpOf(sys, sys.run(50'000'000, &abort));
    EXPECT_TRUE(sys.allDone());
    Dump whole = runDomainLocal(8, 4, 300, 9);
    EXPECT_EQ(whole.ticks, resumed.ticks);
    EXPECT_EQ(whole.text, resumed.text);
    EXPECT_EQ(whole.json, resumed.json);
}

TEST(ParallelSystem, MaxTicksBoundsAShardedRun)
{
    Dump whole = runDomainLocal(8, 4, 3000, 9);
    constexpr Tick kPause = 5000;
    ASSERT_GT(whole.ticks, 4 * kPause);

    SystemConfig cfg = twoSwitchConfig(8, 4);
    System sys(cfg);
    addFactoryWorkloads(sys, cfg, "domain_local", 3000, 9);
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    // Each domain stops at its first batch edge at or past the bound.
    Tick paused = sys.run(kPause);
    EXPECT_GE(paused, kPause);
    EXPECT_LT(paused, whole.ticks);
    EXPECT_FALSE(sys.allDone());
    EXPECT_FALSE(sys.watchdogTripped()) << sys.watchdogDiagnostic();

    // Resuming ends exactly where an uninterrupted sharded run does.
    Dump resumed = dumpOf(sys, sys.run());
    EXPECT_TRUE(sys.allDone());
    EXPECT_EQ(whole.ticks, resumed.ticks);
    EXPECT_EQ(whole.text, resumed.text);
    EXPECT_EQ(whole.json, resumed.json);
}

TEST(ParallelSystem, ShardFatalErrorRethrowsOnTheCaller)
{
    SystemConfig cfg = twoSwitchConfig(2, 2);
    System sys(cfg);
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FatalWorkload>(kSwitch1Addr));
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    ASSERT_EQ(sys.partition().procHome[1], 1u);
    EXPECT_THROW(sys.run(), FatalError);
    // Shard 0 is not stopped by shard 1's failure.
    EXPECT_TRUE(sys.processor(0).done());
}
