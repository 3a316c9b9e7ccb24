/**
 * @file
 * Tests for the workload state machines and the lock drivers: correct op
 * sequences, spin behavior, and end-to-end runs on a live system.
 */

#include <gtest/gtest.h>

#include "proc/sync_ops.hh"
#include "proc/workloads/critical_section.hh"
#include "proc/workloads/migration.hh"
#include "proc/workloads/producer_consumer.hh"
#include "proc/workloads/random_sharing.hh"
#include "proc/workloads/service_queue.hh"
#include "proc/workloads/state_save.hh"
#include "proc/workloads/trace.hh"
#include "system/system.hh"

using namespace csync;

namespace
{

SystemConfig
sysCfg(const std::string &proto, unsigned procs)
{
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.numProcessors = procs;
    cfg.cache.geom.frames = 64;
    cfg.cache.geom.blockWords = 4;
    return cfg;
}

} // namespace

TEST(LockDriver, TestAndSetRetriesOnBus)
{
    LockDriver d(LockAlg::TestAndSet);
    d.beginAcquire(0x1000);
    MemOp op;
    ASSERT_TRUE(d.acquireOp(op));
    EXPECT_EQ(op.type, OpType::Rmw);
    AccessResult fail{1, false};
    d.onResult(op, fail);
    EXPECT_FALSE(d.held());
    ASSERT_TRUE(d.acquireOp(op));
    EXPECT_EQ(op.type, OpType::Rmw);    // retries the RMW directly
    AccessResult ok{0, false};
    d.onResult(op, ok);
    EXPECT_TRUE(d.held());
    EXPECT_EQ(d.rmwAttempts(), 2u);
    EXPECT_EQ(d.releaseOp().type, OpType::Write);
}

TEST(LockDriver, TestTestSetSpinsLocally)
{
    LockDriver d(LockAlg::TestTestSet);
    d.beginAcquire(0x1000);
    MemOp op;
    ASSERT_TRUE(d.acquireOp(op));
    d.onResult(op, AccessResult{1, false});    // TAS failed
    ASSERT_TRUE(d.acquireOp(op));
    EXPECT_EQ(op.type, OpType::Read);          // spin read
    d.onResult(op, AccessResult{1, false});
    ASSERT_TRUE(d.acquireOp(op));
    EXPECT_EQ(op.type, OpType::Read);
    d.onResult(op, AccessResult{0, false});    // lock looks free
    ASSERT_TRUE(d.acquireOp(op));
    EXPECT_EQ(op.type, OpType::Rmw);           // re-try the TAS
    d.onResult(op, AccessResult{0, false});
    EXPECT_TRUE(d.held());
    EXPECT_EQ(d.spinReads(), 2u);
}

TEST(LockDriver, CacheLockWaitsForInterrupt)
{
    LockDriver d(LockAlg::CacheLock);
    d.beginAcquire(0x1000);
    MemOp op;
    ASSERT_TRUE(d.acquireOp(op));
    EXPECT_EQ(op.type, OpType::LockRead);
    AccessResult waiting;
    waiting.waiting = true;
    d.onResult(op, waiting);
    EXPECT_FALSE(d.held());
    EXPECT_FALSE(d.acquireOp(op));    // nothing to issue while waiting
    AccessResult acquired{5, false};
    d.onResult(op, acquired);
    EXPECT_TRUE(d.held());
    EXPECT_EQ(d.releaseOp().type, OpType::UnlockWrite);
}

TEST(TraceWorkload, RunsOnSystem)
{
    System sys(sysCfg("bitar", 1));
    std::vector<TraceEntry> tr = {
        {MemOp{OpType::Write, 0x1000, 11, false}, 0},
        {MemOp{OpType::Read, 0x1000, 0, false}, 2},
    };
    sys.addProcessor(std::make_unique<TraceWorkload>(tr));
    sys.start();
    sys.run();
    auto &wl =
        static_cast<TraceWorkload &>(sys.processor(0).workload());
    ASSERT_EQ(wl.results().size(), 2u);
    EXPECT_EQ(wl.results()[1].value, 11u);
}

TEST(ProducerConsumer, HandsOffAllItemsExactly)
{
    for (const char *proto : {"bitar", "illinois", "dragon"}) {
        System sys(sysCfg(proto, 2));
        ProducerConsumerParams p;
        p.items = 25;
        p.dataWords = 3;
        sys.addProcessor(std::make_unique<ProducerWorkload>(p));
        sys.addProcessor(std::make_unique<ConsumerWorkload>(p));
        sys.start();
        sys.run(2'000'000);
        ASSERT_TRUE(sys.allDone()) << proto;
        auto &cons =
            static_cast<ConsumerWorkload &>(sys.processor(1).workload());
        EXPECT_EQ(cons.valueErrors(), 0u) << proto;
        EXPECT_EQ(sys.checker().violations(), 0u) << proto;
    }
}

TEST(CriticalSection, CountersExactAcrossAlgorithms)
{
    struct Case
    {
        const char *proto;
        LockAlg alg;
    };
    for (Case c : {Case{"bitar", LockAlg::CacheLock},
                   Case{"bitar", LockAlg::TestTestSet},
                   Case{"bitar", LockAlg::TestAndSet},
                   Case{"illinois", LockAlg::TestTestSet},
                   Case{"berkeley", LockAlg::TestAndSet}}) {
        System sys(sysCfg(c.proto, 3));
        CriticalSectionParams p;
        p.iterations = 40;
        p.alg = c.alg;
        p.numLocks = 2;
        p.wordsPerCs = 2;
        for (unsigned i = 0; i < 3; ++i) {
            p.procId = i;
            sys.addProcessor(
                std::make_unique<CriticalSectionWorkload>(p));
        }
        sys.start();
        sys.run(10'000'000);
        ASSERT_TRUE(sys.allDone())
            << c.proto << "/" << lockAlgName(c.alg);
        EXPECT_EQ(sys.checker().violations(), 0u) << c.proto;
        // Sum of guarded counters == total increments issued.
        Word sum = 0;
        for (unsigned l = 0; l < p.numLocks; ++l)
            for (unsigned w = 0; w < p.wordsPerCs; ++w)
                sum += sys.checker().expectedValue(
                    CriticalSectionWorkload::dataWordAddr(p, l, w));
        EXPECT_EQ(sum, 3u * 40u * p.wordsPerCs)
            << c.proto << "/" << lockAlgName(c.alg);
    }
}

TEST(ServiceQueue, FifoIntegrityUnderContention)
{
    System sys(sysCfg("bitar", 4));
    ServiceQueueParams p;
    p.operations = 30;
    p.alg = LockAlg::CacheLock;
    for (unsigned i = 0; i < 4; ++i) {
        p.procId = i;
        sys.addProcessor(std::make_unique<ServiceQueueWorkload>(
            p, i < 2 ? QueueRole::Producer : QueueRole::Consumer));
    }
    sys.start();
    sys.run(20'000'000);
    ASSERT_TRUE(sys.allDone());
    for (unsigned i = 2; i < 4; ++i) {
        auto &wl = static_cast<ServiceQueueWorkload &>(
            sys.processor(i).workload());
        EXPECT_EQ(wl.orderErrors(), 0u);
        EXPECT_EQ(wl.completedOps(), 30u);
    }
    EXPECT_EQ(sys.checker().violations(), 0u);
}

TEST(Migration, ProcessStateFollowsTheToken)
{
    for (const char *proto : {"bitar", "illinois", "synapse"}) {
        System sys(sysCfg(proto, 3));
        MigrationParams p;
        p.rounds = 6;
        p.stateWords = 6;
        p.numProcs = 3;
        for (unsigned i = 0; i < 3; ++i) {
            p.procId = i;
            sys.addProcessor(std::make_unique<MigrationWorkload>(p));
        }
        sys.start();
        sys.run(5'000'000);
        ASSERT_TRUE(sys.allDone()) << proto;
        for (unsigned i = 0; i < 3; ++i) {
            auto &wl = static_cast<MigrationWorkload &>(
                sys.processor(i).workload());
            EXPECT_EQ(wl.valueErrors(), 0u) << proto;
        }
        EXPECT_EQ(sys.checker().violations(), 0u) << proto;
    }
}

TEST(StateSave, WriteNoFetchSavesFetches)
{
    auto run = [](bool wnf) {
        System sys(sysCfg("bitar", 2));
        StateSaveParams p;
        p.switches = 20;
        p.stateBlocks = 4;
        p.blockWords = 4;
        p.useWriteNoFetch = wnf;
        p.numProcs = 2;
        for (unsigned i = 0; i < 2; ++i) {
            p.procId = i;
            sys.addProcessor(std::make_unique<StateSaveWorkload>(p));
        }
        sys.start();
        sys.run(5'000'000);
        EXPECT_TRUE(sys.allDone());
        EXPECT_EQ(sys.checker().violations(), 0u);
        return sys.bus().cacheSupplies.value() +
               sys.bus().memSupplies.value();
    };
    double fetches_with = run(true);
    double fetches_without = run(false);
    EXPECT_LT(fetches_with, fetches_without);
}

TEST(RandomSharing, GeneratesMixWithinRegions)
{
    RandomSharingParams p;
    p.ops = 500;
    p.sharedFraction = 0.5;
    p.writeFraction = 0.5;
    p.procId = 1;
    RandomSharingWorkload wl(p);
    unsigned writes = 0, shared = 0;
    MemOp op;
    Tick think;
    while (wl.next(op, think) == NextStatus::Op) {
        if (op.type == OpType::Write)
            ++writes;
        if (op.addr < p.privateBase)
            ++shared;
        wl.onResult(op, AccessResult{});
    }
    EXPECT_NEAR(double(writes) / 500.0, 0.5, 0.1);
    EXPECT_NEAR(double(shared) / 500.0, 0.5, 0.1);
    EXPECT_TRUE(wl.done());
}
