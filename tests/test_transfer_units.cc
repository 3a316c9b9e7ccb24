/**
 * @file
 * Tests for Section D.3's sub-block transfer units: per-unit dirty
 * status, partial transfers (requested unit + all dirty units), dirty
 * status travelling with source status, and partial write-backs.
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

using namespace csync;
using namespace csync::test;

namespace
{

constexpr Addr X = 0x1000;    // 8-word block when blockWords=8


struct UnitTest : public ::testing::Test
{
    std::unique_ptr<Scenario> s;
    System *sys = nullptr;

    void
    build(const std::string &proto, unsigned transfer_words,
          unsigned block_words = 8)
    {
        SystemConfig cfg;
        cfg.protocol = proto;
        cfg.numProcessors = 3;
        cfg.cache.geom.frames = 8;
        cfg.cache.geom.blockWords = block_words;
        cfg.cache.geom.transferWords = transfer_words;
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

TEST_F(UnitTest, GeometryHelpers)
{
    CacheGeometry g;
    g.blockWords = 8;
    g.transferWords = 2;
    EXPECT_TRUE(g.subBlockUnits());
    EXPECT_EQ(g.unitsPerBlock(), 4u);
    g.transferWords = 0;
    EXPECT_FALSE(g.subBlockUnits());
    EXPECT_EQ(g.unitsPerBlock(), 1u);
    g.transferWords = 8;
    EXPECT_FALSE(g.subBlockUnits());
}

TEST_F(UnitTest, WritesMarkOnlyTheirUnit)
{
    build("bitar", 2);
    op(0, wr(X, 1));               // word 0 -> unit 0
    op(0, wr(X + 3 * 8, 2));       // word 3 -> unit 1
    const Frame *f = sys->cache(0).peekFrame(X);
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(f->unitDirty.size(), 4u);
    EXPECT_TRUE(f->unitDirty[0]);
    EXPECT_TRUE(f->unitDirty[1]);
    EXPECT_FALSE(f->unitDirty[2]);
    EXPECT_FALSE(f->unitDirty[3]);
    EXPECT_EQ(f->dirtyUnits(), 2u);
}

TEST_F(UnitTest, TransferMovesRequestedPlusDirtyUnits)
{
    build("bitar", 2);
    op(0, wr(X, 1));    // dirty unit 0 only
    double cycles = sys->bus().dataTransferCycles.value();
    // Processor 1 reads word 6 (unit 3): transfer = unit 3 + dirty
    // unit 0 = 4 words, not the whole 8-word block.
    op(1, rd(X + 6 * 8));
    double moved = sys->bus().dataTransferCycles.value() - cycles;
    EXPECT_DOUBLE_EQ(moved, 4.0);
}

TEST_F(UnitTest, WholeBlockMovesWithoutUnits)
{
    build("bitar", 0);
    op(0, wr(X, 1));
    double cycles = sys->bus().dataTransferCycles.value();
    op(1, rd(X + 6 * 8));
    EXPECT_DOUBLE_EQ(sys->bus().dataTransferCycles.value() - cycles,
                     8.0);
}

TEST_F(UnitTest, DirtyStatusTravelsWithSourceStatus)
{
    build("bitar", 2);
    op(0, wr(X, 1));                 // unit 0 dirty in cache 0
    op(1, rd(X));                    // NF,S: responsibility moves
    const Frame *f1 = sys->cache(1).peekFrame(X);
    ASSERT_NE(f1, nullptr);
    EXPECT_EQ(f1->state, RdSrcDty);
    ASSERT_EQ(f1->unitDirty.size(), 4u);
    EXPECT_TRUE(f1->unitDirty[0]);
    EXPECT_FALSE(f1->unitDirty[1]);
    // The old source is clean now; its per-unit dirt is gone.
    const Frame *f0 = sys->cache(0).peekFrame(X);
    ASSERT_NE(f0, nullptr);
    EXPECT_EQ(f0->dirtyUnits(), 0u);
}

TEST_F(UnitTest, MemorySupplyChargesOneUnit)
{
    build("bitar", 2);
    sys->memory().writeBlock(X, {1, 2, 3, 4, 5, 6, 7, 8});
    double cycles = sys->bus().dataTransferCycles.value();
    op(0, rd(X + 8));
    EXPECT_DOUBLE_EQ(sys->bus().dataTransferCycles.value() - cycles,
                     2.0);
}

TEST_F(UnitTest, PartialWritebackChargesDirtyUnitsOnly)
{
    build("bitar", 2, 8);
    op(0, wr(X, 1));    // one dirty unit
    double cycles = sys->bus().dataTransferCycles.value();
    // Fill the tiny cache to evict X; the piggybacked write-back
    // should charge 2 words (one dirty unit), not 8.
    for (Addr a = 0x2000; a < 0x2000 + 8 * 0x40; a += 0x40)
        op(0, rd(a));
    EXPECT_EQ(sys->cache(0).stateOf(X), Inv);
    // Data cycles: 8 fetches of 2 words each (memory supplies one unit)
    // plus the 2-word write-back.
    double moved = sys->bus().dataTransferCycles.value() - cycles;
    EXPECT_DOUBLE_EQ(moved, 8 * 2.0 + 2.0);
    // Memory still holds the written word.
    EXPECT_EQ(sys->memory().readWord(X), 1u);
}

TEST_F(UnitTest, ValuesStayCoherentWithUnits)
{
    build("bitar", 2);
    for (int i = 0; i < 30; ++i) {
        unsigned p = i % 3;
        Addr a = X + Addr(i % 8) * bytesPerWord;
        if (i % 2)
            op(p, wr(a, Word(i)));
        else
            op(p, rd(a));
    }
    EXPECT_EQ(sys->checker().violations(), 0u);
    EXPECT_EQ(sys->checkStateInvariants(), 0u);
}

TEST_F(UnitTest, LockHandoffWithUnits)
{
    build("bitar", 1);
    op(0, MemOp{OpType::LockRead, X, 0, false});
    op(0, wr(X + 8, 42));
    op(0, MemOp{OpType::UnlockWrite, X, 1, false});
    auto r = op(1, rd(X + 8));
    EXPECT_EQ(r.value, 42u);
    EXPECT_EQ(sys->checker().violations(), 0u);
}

TEST(UnitConfig, BadTransferUnitIsFatal)
{
    SystemConfig cfg;
    cfg.protocol = "bitar";
    cfg.numProcessors = 1;
    cfg.cache.geom.blockWords = 8;
    cfg.cache.geom.transferWords = 3;    // does not divide 8
    EXPECT_DEATH({ System sys(cfg); }, "transfer unit");
}
