/**
 * @file
 * Unit tests for main memory: data, the Frank-style source bit, and the
 * Bitar lock-tag fallback.
 */

#include <gtest/gtest.h>

#include "mem/memory.hh"

using namespace csync;

namespace
{

struct MemoryTest : public ::testing::Test
{
    EventQueue eq;
    stats::Group root{"root"};
    Memory mem{"memory", &eq, 4, &root};
};

} // namespace

TEST_F(MemoryTest, UnwrittenBlocksReadZero)
{
    std::vector<Word> b{7, 7, 7, 7, 7, 7};    // stale, oversized buffer
    mem.readBlock(0x1000, &b);
    ASSERT_EQ(b.size(), 4u);
    for (Word w : b)
        EXPECT_EQ(w, 0u);
}

TEST_F(MemoryTest, BlockRoundTrip)
{
    mem.writeBlock(0x1000, {1, 2, 3, 4});
    std::vector<Word> b;
    mem.readBlock(0x1000, &b);
    EXPECT_EQ(b, (std::vector<Word>{1, 2, 3, 4}));
}

TEST_F(MemoryTest, WordAccessWithinBlock)
{
    mem.writeWord(0x1008, 99);
    EXPECT_EQ(mem.readWord(0x1008), 99u);
    std::vector<Word> b;
    mem.readBlock(0x1000, &b);
    EXPECT_EQ(b[1], 99u);
    EXPECT_EQ(b[0], 0u);
}

TEST_F(MemoryTest, PeekDoesNotTouchStats)
{
    mem.writeBlock(0x1000, {5, 6, 7, 8});
    double reads = mem.blockReads.value();
    auto b = mem.peekBlock(0x1000);
    EXPECT_EQ(b[0], 5u);
    EXPECT_DOUBLE_EQ(mem.blockReads.value(), reads);
}

TEST_F(MemoryTest, SourceBit)
{
    EXPECT_FALSE(mem.cacheOwned(0x1000));
    mem.setCacheOwned(0x1000, true);
    EXPECT_TRUE(mem.cacheOwned(0x1000));
    EXPECT_TRUE(mem.cacheOwned(0x1008));    // same block
    EXPECT_FALSE(mem.cacheOwned(0x1020));
    mem.setCacheOwned(0x1000, false);
    EXPECT_FALSE(mem.cacheOwned(0x1000));
}

TEST_F(MemoryTest, LockTags)
{
    EXPECT_FALSE(mem.memLocked(0x2000));
    mem.setMemLock(0x2000, true, 3);
    EXPECT_TRUE(mem.memLocked(0x2000));
    EXPECT_EQ(mem.memLockHolder(0x2000), 3);
    EXPECT_FALSE(mem.memWaiter(0x2000));
    mem.setMemWaiter(0x2000, true);
    EXPECT_TRUE(mem.memWaiter(0x2000));
    mem.setMemLock(0x2000, false, invalidNode);
    EXPECT_FALSE(mem.memLocked(0x2000));
    EXPECT_EQ(mem.memLockHolder(0x2000), invalidNode);
}

TEST_F(MemoryTest, StatsCount)
{
    mem.writeBlock(0x1000, {0, 0, 0, 0});
    std::vector<Word> b;
    mem.readBlock(0x1000, &b);
    mem.writeWord(0x1000, 1);
    mem.readWord(0x1000);
    EXPECT_DOUBLE_EQ(mem.blockWrites.value(), 1.0);
    EXPECT_DOUBLE_EQ(mem.blockReads.value(), 1.0);
    EXPECT_DOUBLE_EQ(mem.wordWrites.value(), 1.0);
    EXPECT_DOUBLE_EQ(mem.wordReads.value(), 1.0);
}

TEST_F(MemoryTest, BlockAlignHelper)
{
    EXPECT_EQ(mem.blockAlign(0x103f), 0x1020u);
    EXPECT_EQ(mem.blockAlign(0x1020), 0x1020u);
}
