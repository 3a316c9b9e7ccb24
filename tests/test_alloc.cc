/**
 * @file
 * Allocation budget of the simulation hot path.  A counting global
 * operator new checks that the steady state allocates nothing in the tag
 * array, the bus and the processor/cache hand-off, that a whole
 * contended run stays under a per-op allocation bound, and that the
 * sharded engine's own bookkeeping stays small.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cache/cache_blocks.hh"
#include "harness/workload_factory.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "system/system.hh"

namespace
{

std::atomic<std::uint64_t> gNews{0};
std::atomic<std::uint64_t> gNewBytes{0};

/** Keeps the sanity check's allocation from being optimized away. */
int *volatile gSink = nullptr;

} // namespace

// The replacements that touch malloc/free stay out of line: inlined, the
// compiler sees free() reach a pointer from a new-expression and warns
// (-Wmismatched-new-delete) in sanitizer builds.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    gNewBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    operator delete(p);
}

using namespace csync;

namespace
{

/** Allocations made by @p fn. */
template <typename F>
std::uint64_t
countNews(F &&fn)
{
    std::uint64_t before = gNews.load();
    fn();
    return gNews.load() - before;
}

/** Bytes requested from operator new by @p fn. */
template <typename F>
std::uint64_t
countNewBytes(F &&fn)
{
    std::uint64_t before = gNewBytes.load();
    fn();
    return gNewBytes.load() - before;
}

} // namespace

TEST(Alloc, CounterSeesAllocations)
{
    // Guard against the override silently not being linked in.
    EXPECT_GE(countNews([] { gSink = new int(1); }), 1u);
    delete gSink;
    EXPECT_GE(countNewBytes([] { gSink = new int[64]; }), 64 * sizeof(int));
    delete[] gSink;
}

TEST(Alloc, CacheBlocksAllocateNothingAfterConstruction)
{
    for (unsigned ways : {0u, 4u}) {
        CacheGeometry g;
        g.frames = 64;
        g.ways = ways;
        g.blockWords = 4;
        CacheBlocks tags(g);
        Random rng(11 + ways);
        std::uint64_t news = countNews([&] {
            for (Tick t = 1; t <= 200000; ++t) {
                Addr blk = tags.blockAlign(rng.uniform(512) * g.blockBytes());
                Frame *f = tags.find(blk);
                if (!f) {
                    f = tags.victim(blk);
                    f->state = Inv;
                    tags.install(*f, blk);
                    f->state = rng.chance(0.05) ? LkSrcDty : Rd;
                } else if (rng.chance(0.1)) {
                    f->state = Inv;    // snooped invalidation, in place
                }
                tags.touch(*f, t);
            }
        });
        EXPECT_EQ(news, 0u) << "ways " << ways;
    }
}

TEST(Alloc, DatalessBusTransactionsAllocateNothing)
{
    // Two Read copies, then a write from cache 0: a privilege-only
    // Upgrade that invalidates cache 1 and moves no data (Figure 5).
    SystemConfig cfg;
    cfg.protocol = "bitar";
    cfg.numProcessors = 2;
    cfg.cache.geom.frames = 16;
    System sys(cfg);
    sys.start();
    const Addr x = 0x1000;
    Bus &bus = sys.bus();
    bool done = false;
    auto upgrade = [&](Word v) {
        done = false;
        sys.cache(0).access(MemOp{OpType::Write, x, v, false},
                            [&done](const AccessResult &) { done = true; });
        sys.eventq().run();
    };
    auto share = [&] {
        sys.cache(0).installFrameForTest(x, Rd);
        sys.cache(1).installFrameForTest(x, Rd);
    };

    // Warm up: event pool, parked message and result, checker entries.
    for (Word v = 1; v <= 8; ++v) {
        share();
        upgrade(v);
        ASSERT_TRUE(done);
    }

    double upgrades = bus.typeCount(BusReq::Upgrade);
    std::uint64_t news = 0;
    for (Word v = 100; v < 1100; ++v) {
        share();
        news += countNews([&] { upgrade(v); });
        ASSERT_TRUE(done);
        ASSERT_EQ(sys.cache(1).stateOf(x), Inv);
    }
    EXPECT_DOUBLE_EQ(bus.typeCount(BusReq::Upgrade), upgrades + 1000);
    EXPECT_EQ(news, 0u);
}

TEST(Alloc, ContendedRunStaysUnderPerOpBound)
{
    // The steady state still copies a snooper's block into its supply
    // reply (SnoopReply::data), so a contended run allocates about once
    // per cache-to-cache supply, plus first-touch entries in memory and
    // the checker.  Measured with g++ 12 / libstdc++ on this exact run:
    // 16729 allocations for 32000 ops (0.52 per op) and 16826 bus
    // transactions.  Before the hot path was made allocation-free the
    // same run made 7.4 per op.  The bound sits between the two: one
    // allocation per bus transaction creeping back (0.53 per op here)
    // would cross it.
    constexpr double kMaxNewsPerOp = 0.75;

    SystemConfig cfg;
    cfg.protocol = "bitar";
    cfg.numProcessors = 8;
    System sys(cfg);
    for (unsigned p = 0; p < cfg.numProcessors; ++p) {
        harness::WorkloadSlot slot;
        slot.procId = p;
        slot.numProcs = cfg.numProcessors;
        slot.ops = 4000;
        slot.seed = 3;
        slot.blockBytes = cfg.cache.geom.blockBytes();
        std::string err;
        auto w = harness::makeWorkload("random_contended", slot, &err);
        ASSERT_TRUE(w) << err;
        sys.addProcessor(std::move(w));
    }
    sys.start();
    std::uint64_t news = countNews([&] { sys.run(); });
    ASSERT_TRUE(sys.allDone());
    double ops = sys.totalRetiredOps();
    ASSERT_GT(ops, 0.0);
    double per_op = double(news) / ops;
    RecordProperty("news_per_op", std::to_string(per_op));
    EXPECT_LT(per_op, kMaxNewsPerOp)
        << news << " allocations for " << ops << " ops and "
        << sys.bus().transactions.value() << " bus transactions";
}

TEST(Alloc, ParallelSchedulerBookkeepingStaysSmall)
{
    // The scheduler's own cost over four trivial shards: worker threads,
    // shard callbacks and the barrier.  Shards are disjoint, so it needs
    // no per-pair state.  Measured with g++ 12 / libstdc++ on this exact
    // run: 632 bytes.  The bound leaves room for the thread library and
    // a small table, but not for per-pair event buffers: a 1024-entry
    // ring of events for each of the 16 shard pairs is 2362104 bytes.
    constexpr std::uint64_t kMaxBytes = 64 * 1024;

    struct Tiny
    {
        EventQueue eq;
        int left = 3;

        void
        arm()
        {
            eq.schedule(eq.now() + 1, [this] {
                if (--left > 0)
                    arm();
            });
        }
    };
    std::vector<Tiny> tiny(4);
    for (Tiny &t : tiny)
        t.arm();

    ParallelScheduler::Result res;
    std::uint64_t bytes = countNewBytes([&] {
        std::vector<ParallelScheduler::Shard> shards;
        for (Tiny &t : tiny) {
            ParallelScheduler::Shard sh;
            sh.eq = &t.eq;
            sh.done = [&t] { return t.left == 0; };
            shards.push_back(std::move(sh));
        }
        ParallelScheduler::Options o;
        o.threads = 4;
        ParallelScheduler sched(std::move(shards), o);
        res = sched.run();
    });
    EXPECT_TRUE(res.completed);
    RecordProperty("scheduler_bytes", std::to_string(bytes));
    EXPECT_LT(bytes, kMaxBytes) << bytes << " bytes allocated";
}
