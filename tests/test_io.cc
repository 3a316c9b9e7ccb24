/**
 * @file
 * Tests for I/O transfer (Section E.2, Feature 11): input invalidates
 * all cached copies while memory is written; paging-out fetches the
 * latest version with write privilege; non-paging output reads without
 * disturbing the source cache's status.
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

using namespace csync;
using namespace csync::test;

namespace
{

constexpr Addr X = 0x1000;

struct IOTest : public ::testing::Test
{
    SystemConfig cfg;
    std::unique_ptr<Scenario> s;
    System *sys = nullptr;

    void
    build(const std::string &proto)
    {
        cfg.protocol = proto;
        cfg.numProcessors = 2;
        cfg.cache.geom.frames = 16;
        cfg.cache.geom.blockWords = 4;
        cfg.withIODevice = true;
        s = std::make_unique<Scenario>(cfg);
        sys = &s->system();
    }

    AccessResult
    op(unsigned p, const MemOp &m)
    {
        AccessResult out;
        EXPECT_TRUE(s->tryRun(p, m, &out));
        return out;
    }
};

} // namespace

TEST_F(IOTest, InputInvalidatesAllCopiesAndWritesMemory)
{
    build("bitar");
    op(0, rd(X));
    op(1, rd(X));
    bool done = false;
    sys->io()->input(X, {9, 8, 7, 6}, [&](const std::vector<Word> &) {
        done = true;
    });
    sys->eventq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys->cache(0).stateOf(X), Inv);
    EXPECT_EQ(sys->cache(1).stateOf(X), Inv);
    EXPECT_EQ(sys->memory().peekBlock(X), (std::vector<Word>{9, 8, 7, 6}));
    // Caches re-read the new data coherently.
    EXPECT_EQ(op(0, rd(X)).value, 9u);
    EXPECT_EQ(op(1, rd(X + 8)).value, 8u);
    EXPECT_EQ(sys->checker().violations(), 0u);
}

TEST_F(IOTest, PageOutFetchesLatestAndInvalidates)
{
    build("bitar");
    op(0, wr(X, 55));    // dirty in cache 0
    std::vector<Word> paged;
    sys->io()->pageOut(X, [&](const std::vector<Word> &d) { paged = d; });
    sys->eventq().run();
    ASSERT_EQ(paged.size(), 4u);
    EXPECT_EQ(paged[0], 55u);
    EXPECT_EQ(sys->cache(0).stateOf(X), Inv);
}

TEST_F(IOTest, NonPagingOutputKeepsSourceStatus)
{
    build("bitar");
    op(0, wr(X, 77));
    ASSERT_EQ(sys->cache(0).stateOf(X), WrSrcDty);
    std::vector<Word> out;
    sys->io()->output(X, [&](const std::vector<Word> &d) { out = d; });
    sys->eventq().run();
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 77u);
    // The source cache did not give up source status (Section E.2).
    EXPECT_EQ(sys->cache(0).stateOf(X), WrSrcDty);
}

TEST_F(IOTest, OutputFromMemoryWhenNoSource)
{
    build("bitar");
    sys->memory().writeBlock(X, {1, 2, 3, 4});
    std::vector<Word> out;
    sys->io()->output(X, [&](const std::vector<Word> &d) { out = d; });
    sys->eventq().run();
    EXPECT_EQ(out, (std::vector<Word>{1, 2, 3, 4}));
}

TEST_F(IOTest, QueuedOperationsRunInOrder)
{
    build("illinois");
    op(0, wr(X, 5));
    std::vector<int> order;
    sys->io()->pageOut(X, [&](const std::vector<Word> &) {
        order.push_back(1);
    });
    sys->io()->input(X, {0, 0, 0, 0}, [&](const std::vector<Word> &) {
        order.push_back(2);
    });
    sys->eventq().run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(sys->io()->idle());
}

TEST_F(IOTest, InputWorksAcrossProtocols)
{
    for (const char *proto :
         {"goodman", "synapse", "illinois", "berkeley", "dragon"}) {
        build(proto);
        op(0, rd(X));
        sys->io()->input(X, {4, 4, 4, 4}, nullptr);
        sys->eventq().run();
        EXPECT_EQ(sys->cache(0).stateOf(X), Inv) << proto;
        EXPECT_EQ(op(1, rd(X)).value, 4u) << proto;
    }
}

TEST_F(IOTest, LockedBlockMakesIORetry)
{
    build("bitar");
    op(0, MemOp{OpType::LockRead, X, 0, false});
    ASSERT_TRUE(isLocked(sys->cache(0).stateOf(X)));
    std::vector<Word> paged;
    sys->io()->pageOut(X, [&](const std::vector<Word> &d) { paged = d; });
    // The I/O processor retries while the lock is held (bounded runs:
    // its retry loop keeps the event queue alive).
    sys->eventq().run(sys->eventq().now() + 64);
    EXPECT_TRUE(paged.empty());
    EXPECT_GE(sys->io()->lockedRetries.value(), 1.0);

    // Release the lock; the next retry succeeds.
    s->issue(0, wr(X, 9));
    sys->eventq().run(sys->eventq().now() + 50);
    ASSERT_TRUE(s->pendingCompleted(0));
    s->issue(0, MemOp{OpType::UnlockWrite, X, 1, false});
    sys->eventq().run(sys->eventq().now() + 300);
    ASSERT_TRUE(s->pendingCompleted(0));
    ASSERT_EQ(paged.size(), 4u);
    EXPECT_EQ(paged[0], 1u);
    EXPECT_TRUE(sys->io()->idle());
}
