/**
 * @file
 * The sharded parallel engine, bottom up: runBounded() (the window
 * primitive), the ParallelScheduler's barrier/abort/watchdog-hook
 * machinery on synthetic shards (the TSan target: workers and the
 * coordinator meet only at the window barrier), the static
 * domain-partition analysis with every serial-fallback reason, and
 * whole-System parallel runs whose statistics must equal the serial
 * engine's exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <vector>

#include "harness/workload_factory.hh"
#include "sim/parallel.hh"
#include "system/domain.hh"
#include "system/system.hh"

using namespace csync;
using namespace csync::harness;

// --------------------------------------------------------------------
// EventQueue::runBounded — the window primitive
// --------------------------------------------------------------------

TEST(RunBounded, StopsAtHorizonInclusive)
{
    EventQueue eq;
    std::vector<Tick> ran;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&ran, &eq] { ran.push_back(eq.now()); });
    EXPECT_EQ(eq.runBounded(5, 1000), 5u);
    EXPECT_EQ(ran.size(), 5u);
    EXPECT_EQ(eq.now(), 5u); // never past the last executed event
    EXPECT_EQ(eq.nextEventTick(), 6u);
    EXPECT_EQ(eq.runBounded(10, 1000), 5u);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(eq.empty());
}

TEST(RunBounded, StopsAtEventBudget)
{
    EventQueue eq;
    int ran = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&ran] { ++ran; });
    EXPECT_EQ(eq.runBounded(maxTick, 3), 3u);
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(RunBounded, EmptyWindowExecutesNothing)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    EXPECT_EQ(eq.runBounded(50, 1000), 0u);
    EXPECT_EQ(eq.now(), 0u); // horizon alone must not advance time
    EXPECT_EQ(eq.nextEventTick(), 100u);
}

// --------------------------------------------------------------------
// ParallelScheduler on synthetic shards
// --------------------------------------------------------------------

namespace
{

/** A self-rescheduling synthetic workload: one event per tick until
 *  @p target events have run on shard @p eq. */
struct SpinShard
{
    EventQueue eq;
    long count = 0;
    long target = 0;

    void
    arm()
    {
        eq.schedule(eq.now() + 1, [this] { step(); });
    }

    void
    step()
    {
        if (++count < target)
            arm();
    }
};

ParallelScheduler::Shard
shardFor(SpinShard *s)
{
    ParallelScheduler::Shard sh;
    sh.eq = &s->eq;
    sh.done = [s] { return s->count >= s->target; };
    sh.retired = [s] { return double(s->count); };
    return sh;
}

} // namespace

TEST(ParallelScheduler, RunsAllShardsToCompletion)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        SpinShard a, b;
        a.target = 5000;
        b.target = 3000;
        a.arm();
        b.arm();
        ParallelScheduler::Options o;
        o.threads = threads;
        o.window = 256;
        ParallelScheduler sched({shardFor(&a), shardFor(&b)}, o);
        ParallelScheduler::Result r = sched.run();
        EXPECT_TRUE(r.completed) << threads;
        EXPECT_FALSE(r.drained);
        EXPECT_EQ(a.count, 5000) << threads;
        EXPECT_EQ(b.count, 3000) << threads;
        EXPECT_EQ(r.retired, 8000.0) << threads;
        // Shard a's last event ran at tick 5000.
        EXPECT_EQ(r.finalTick, 5000u) << threads;
    }
}

TEST(ParallelScheduler, AbortFlagStopsTheRun)
{
    SpinShard a, b;
    a.target = 1000000;
    b.target = 1000000;
    a.arm();
    b.arm();
    std::atomic<bool> abort{false};
    ParallelScheduler::Options o;
    o.threads = 2;
    o.window = 64;
    o.abort = &abort;
    int windows = 0;
    o.onWindow = [&abort, &windows](Tick, double) {
        if (++windows == 3)
            abort.store(true);
        return false;
    };
    ParallelScheduler sched({shardFor(&a), shardFor(&b)}, o);
    ParallelScheduler::Result r = sched.run();
    EXPECT_TRUE(r.aborted);
    EXPECT_FALSE(r.completed);
    EXPECT_LT(a.count, 1000000);
}

TEST(ParallelScheduler, HookSeesAggregateRetirementAcrossShards)
{
    // The PR 7 regression shape: shard a finishes almost immediately,
    // shard b keeps retiring for a long time.  The barrier hook (the
    // watchdog seam) must see the TOTAL keep growing — a watchdog that
    // watched only shard a would observe frozen progress and trip.
    SpinShard a, b;
    a.target = 10;
    b.target = 50000;
    a.arm();
    b.arm();
    ParallelScheduler::Options o;
    o.threads = 2;
    o.window = 512;
    double lastRetired = -1;
    bool sawStall = false;
    bool sawGrowthAfterShardADone = false;
    o.onWindow = [&](Tick, double retired) {
        if (retired <= lastRetired)
            sawStall = true;
        if (a.count >= a.target && retired > lastRetired &&
            lastRetired >= 0)
            sawGrowthAfterShardADone = true;
        lastRetired = retired;
        return false;
    };
    ParallelScheduler sched({shardFor(&a), shardFor(&b)}, o);
    ParallelScheduler::Result r = sched.run();
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(sawStall);
    EXPECT_TRUE(sawGrowthAfterShardADone);
    EXPECT_EQ(r.retired, 50010.0);
}

TEST(ParallelScheduler, HookCanStopTheRun)
{
    SpinShard a, b;
    a.target = 1000000;
    b.target = 1000000;
    a.arm();
    b.arm();
    ParallelScheduler::Options o;
    o.threads = 2;
    o.window = 64;
    int windows = 0;
    o.onWindow = [&windows](Tick, double) { return ++windows >= 4; };
    ParallelScheduler sched({shardFor(&a), shardFor(&b)}, o);
    ParallelScheduler::Result r = sched.run();
    EXPECT_TRUE(r.stoppedByHook);
    EXPECT_FALSE(r.completed);
}

TEST(ParallelScheduler, DrainedQueuesWithUnfinishedShardsIsDeadlock)
{
    // Shard b's queue is empty but its done() never becomes true: the
    // sharded engine's deadlock signal.
    SpinShard a, b;
    a.target = 100;
    b.target = 100; // never armed — no events, never done
    a.arm();
    ParallelScheduler::Options o;
    o.threads = 2;
    o.window = 64;
    ParallelScheduler sched({shardFor(&a), shardFor(&b)}, o);
    ParallelScheduler::Result r = sched.run();
    EXPECT_TRUE(r.drained);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(a.count, 100);
    EXPECT_EQ(b.count, 0);
}

TEST(ParallelScheduler, MaxTicksBoundsTheHorizon)
{
    SpinShard a, b;
    a.target = 1000000;
    b.target = 1000000;
    a.arm();
    b.arm();
    ParallelScheduler::Options o;
    o.threads = 2;
    o.window = 128;
    o.maxTicks = 1000;
    ParallelScheduler sched({shardFor(&a), shardFor(&b)}, o);
    ParallelScheduler::Result r = sched.run();
    EXPECT_TRUE(r.hitMaxTicks);
    EXPECT_FALSE(r.completed);
    EXPECT_LT(r.finalTick, 1000u);
    EXPECT_GE(a.count, 900); // ran right up to the horizon
    EXPECT_LT(a.count, 1000);
}

TEST(ParallelScheduler, ShardFatalErrorRethrowsOnTheCaller)
{
    SpinShard a;
    a.target = 1000;
    a.arm();
    SpinShard bomb;
    bomb.target = 1000000;
    bomb.eq.schedule(10, [] { fatal("shard exploded"); });
    ParallelScheduler::Options o;
    o.threads = 2;
    o.window = 64;
    ParallelScheduler sched({shardFor(&a), shardFor(&bomb)}, o);
    EXPECT_THROW(sched.run(), FatalError);
}

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
runDomainLocal(unsigned procs, unsigned threads, std::uint64_t ops,
               std::uint64_t seed, bool *wasParallel = nullptr)
{
    SystemConfig cfg = twoSwitchConfig(procs, threads);
    System sys(cfg);
    addFactoryWorkloads(sys, cfg, "domain_local", ops, seed);
    sys.start();
    if (wasParallel)
        *wasParallel = sys.parallelActive();
    Dump d;
    d.ticks = sys.run();
    EXPECT_TRUE(sys.allDone());
    std::ostringstream text, json;
    sys.dumpStats(text);
    sys.dumpStatsJson(json);
    d.text = text.str();
    d.json = json.str();
    return d;
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
    // the imbalance.  A watchdog that only observed shard 0 would see
    // frozen progress and trip — the aggregate must not.
    SystemConfig cfg = twoSwitchConfig(4, 2);
    cfg.fault.watchdogWindow = 2000;
    System sys(cfg);
    // Short side: two 4-op workloads on switch 0.
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr, kSwitch0Addr + 64}}));
    sys.addProcessor(std::make_unique<FootprintWorkload>(
        std::vector<AddrRange>{{kSwitch0Addr + 0x20000,
                                kSwitch0Addr + 0x20040}}));
    // Long side: two odd-numbered domain_local workloads (the recipe
    // homes odd procIds on switch 1) retiring for thousands of ticks.
    WorkloadSlot slot;
    slot.numProcs = 4;
    slot.ops = 4000;
    slot.seed = 5;
    slot.blockBytes = Addr(cfg.cache.geom.blockWords) * bytesPerWord;
    slot.protocol = cfg.protocol;
    for (unsigned id : {1u, 3u}) {
        slot.procId = id;
        std::string err;
        auto w = makeWorkload("domain_local", slot, &err);
        ASSERT_NE(w, nullptr) << err;
        sys.addProcessor(std::move(w));
    }
    sys.start();
    ASSERT_TRUE(sys.parallelActive()) << sys.serialReason();
    sys.run();
    EXPECT_TRUE(sys.allDone());
    EXPECT_FALSE(sys.watchdogTripped()) << sys.watchdogDiagnostic();
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
