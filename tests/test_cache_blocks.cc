/**
 * @file
 * Unit tests for the tag/data store and its LRU replacement, including
 * the prefer-unlocked-victim rule behind the paper's locked-block purge
 * fallback (Section E.3), and a randomized check of the open-addressing
 * address index against a reference hint-map model.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "cache/cache_blocks.hh"
#include "sim/random.hh"

using namespace csync;

namespace
{

CacheGeometry
geom(unsigned frames, unsigned ways, unsigned words = 4)
{
    CacheGeometry g;
    g.frames = frames;
    g.ways = ways;
    g.blockWords = words;
    return g;
}

} // namespace

TEST(CacheBlocks, BlockAlign)
{
    CacheBlocks cb(geom(4, 0, 4));    // 32-byte blocks
    EXPECT_EQ(cb.blockAlign(0x1000), 0x1000u);
    EXPECT_EQ(cb.blockAlign(0x101f), 0x1000u);
    EXPECT_EQ(cb.blockAlign(0x1020), 0x1020u);
}

TEST(CacheBlocks, FindMissesOnEmpty)
{
    CacheBlocks cb(geom(4, 0));
    EXPECT_EQ(cb.find(0x1000), nullptr);
    EXPECT_EQ(cb.validCount(), 0u);
}

TEST(CacheBlocks, VictimPrefersInvalid)
{
    CacheBlocks cb(geom(2, 0));
    Frame *a = cb.victim(0x1000);
    cb.install(*a, 0x1000);
    a->state = Rd;
    Frame *b = cb.victim(0x2000);
    EXPECT_NE(a, b);
    EXPECT_FALSE(b->valid());
}

TEST(CacheBlocks, VictimIsLruAmongValid)
{
    CacheBlocks cb(geom(2, 0));
    Frame *a = cb.victim(0x1000);
    cb.install(*a, 0x1000);
    a->state = Rd;
    cb.touch(*a, 10);
    Frame *b = cb.victim(0x2000);
    cb.install(*b, 0x2000);
    b->state = Rd;
    cb.touch(*b, 20);
    EXPECT_EQ(cb.victim(0x3000), a);
    cb.touch(*a, 30);
    EXPECT_EQ(cb.victim(0x3000), b);
}

TEST(CacheBlocks, VictimAvoidsLockedFrames)
{
    CacheBlocks cb(geom(2, 0));
    Frame *a = cb.victim(0x1000);
    cb.install(*a, 0x1000);
    a->state = LkSrcDty;
    cb.touch(*a, 1);    // locked frame is the LRU one
    Frame *b = cb.victim(0x2000);
    cb.install(*b, 0x2000);
    b->state = Rd;
    cb.touch(*b, 50);
    EXPECT_EQ(cb.victim(0x3000), b);
}

TEST(CacheBlocks, VictimPicksLockedWhenAllLocked)
{
    CacheBlocks cb(geom(2, 0));
    for (Addr a : {Addr(0x1000), Addr(0x2000)}) {
        Frame *f = cb.victim(a);
        cb.install(*f, a);
        f->state = LkSrcDty;
        cb.touch(*f, a);
    }
    Frame *v = cb.victim(0x3000);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(isLocked(v->state));
    EXPECT_EQ(v->blockAddr, 0x1000u);    // LRU among locked
}

TEST(CacheBlocks, SetAssociativeMapping)
{
    // 4 frames, 2 ways => 2 sets; 32-byte blocks.
    CacheBlocks cb(geom(4, 2));
    EXPECT_EQ(cb.geometry().sets(), 2u);
    // Blocks 0x1000 and 0x1040 map to the same set (stride 2 blocks).
    EXPECT_EQ(cb.setIndex(0x1000), cb.setIndex(0x1040));
    EXPECT_NE(cb.setIndex(0x1000), cb.setIndex(0x1020));
}

TEST(CacheBlocks, SetConflictEvictsWithinSet)
{
    CacheBlocks cb(geom(4, 2));
    // Fill one set with two conflicting blocks.
    Frame *a = cb.victim(0x1000);
    cb.install(*a, 0x1000);
    a->state = Rd;
    cb.touch(*a, 1);
    Frame *b = cb.victim(0x1040);
    cb.install(*b, 0x1040);
    b->state = Rd;
    cb.touch(*b, 2);
    // Third conflicting block must displace the LRU of that set.
    Frame *v = cb.victim(0x1080);
    EXPECT_EQ(v, a);
}

TEST(CacheBlocks, FindHitsAfterInstall)
{
    CacheBlocks cb(geom(4, 0));
    Frame *a = cb.victim(0x1000);
    cb.install(*a, 0x1000);
    a->state = Rd;
    EXPECT_EQ(cb.find(0x1000), a);
    EXPECT_EQ(cb.find(0x2000), nullptr);
}

TEST(CacheBlocks, FindRejectsStaleHintAfterInPlaceInvalidate)
{
    // Protocols invalidate by flipping Frame::state directly; the
    // address index entry it leaves behind must not resurrect the block.
    CacheBlocks cb(geom(4, 0));
    Frame *a = cb.victim(0x1000);
    cb.install(*a, 0x1000);
    a->state = Rd;
    ASSERT_EQ(cb.find(0x1000), a);
    a->state = Inv;
    EXPECT_EQ(cb.find(0x1000), nullptr);
    // And again, after the lazy erase.
    EXPECT_EQ(cb.find(0x1000), nullptr);
}

TEST(CacheBlocks, FindTracksFrameRebinding)
{
    // A frame reused for a different block: the old address must miss,
    // the new one must hit.
    CacheBlocks cb(geom(1, 0));
    Frame *f = cb.victim(0x1000);
    cb.install(*f, 0x1000);
    f->state = Rd;
    ASSERT_EQ(cb.find(0x1000), f);
    f->state = Inv;    // evicted
    cb.install(*f, 0x2000);
    f->state = Rd;
    EXPECT_EQ(cb.find(0x1000), nullptr);
    EXPECT_EQ(cb.find(0x2000), f);
}

TEST(CacheBlocks, ForEachValidVisitsAll)
{
    CacheBlocks cb(geom(8, 0));
    for (Addr a = 0x1000; a < 0x1000 + 3 * 32; a += 32) {
        Frame *f = cb.victim(a);
        cb.install(*f, a);
        f->state = Rd;
    }
    unsigned n = 0;
    cb.forEachValid([&](const Frame &) { ++n; });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(cb.validCount(), 3u);
}

namespace
{

/**
 * Reference model of the address index: the hint map the flat table
 * replaced (a std::unordered_map that keeps every install()'s entry until
 * a lookup finds it stale), plus the full-scan victim rule.  Frames are
 * observed through the array under test, which is one contiguous block
 * of geometry().frames frames starting at a fresh cache's first victim.
 */
class IndexModel
{
  public:
    IndexModel(CacheBlocks &cb, Frame *base) : cb_(cb), base_(base) {}

    Frame *
    find(Addr a)
    {
        auto it = hints_.find(a);
        if (it == hints_.end())
            return nullptr;
        Frame *f = it->second;
        if (f->valid() && f->blockAddr == a)
            return f;
        hints_.erase(it);
        return nullptr;
    }

    void install(Frame &f, Addr a) { hints_[a] = &f; }

    Frame *
    victim(Addr a)
    {
        const CacheGeometry &g = cb_.geometry();
        unsigned lo = 0, hi = g.frames;
        if (g.ways) {
            lo = cb_.setIndex(a) * g.ways;
            hi = lo + g.ways;
        }
        Frame *invalid = nullptr, *lru_unlocked = nullptr, *lru_any = nullptr;
        for (unsigned i = lo; i < hi; ++i) {
            Frame &f = base_[i];
            if (!f.valid()) {
                if (!invalid)
                    invalid = &f;
                continue;
            }
            if (!lru_any || f.lastUse < lru_any->lastUse)
                lru_any = &f;
            if (!isLocked(f.state) &&
                (!lru_unlocked || f.lastUse < lru_unlocked->lastUse))
                lru_unlocked = &f;
        }
        return invalid ? invalid : lru_unlocked ? lru_unlocked : lru_any;
    }

    /** The valid frame holding @p a, by brute-force scan. */
    Frame *
    scan(Addr a)
    {
        for (unsigned i = 0; i < cb_.geometry().frames; ++i)
            if (base_[i].valid() && base_[i].blockAddr == a)
                return &base_[i];
        return nullptr;
    }

    Frame &frame(unsigned i) { return base_[i]; }

  private:
    CacheBlocks &cb_;
    Frame *base_;
    std::unordered_map<Addr, Frame *> hints_;
};

/**
 * Drive @p cb and the model with one random install / find / in-place
 * invalidate / lock / rebind / victim sequence over a small address
 * universe and compare every answer.
 */
void
fuzzIndex(const CacheGeometry &g, std::uint64_t seed, unsigned steps)
{
    SCOPED_TRACE(testing::Message() << "frames " << g.frames << " ways "
                                    << g.ways << " seed " << seed);
    CacheBlocks cb(g);
    IndexModel model(cb, cb.victim(0));
    Random rng(seed);
    // Four addresses per frame: the table has two slots per frame, so
    // shared home slots, long probe runs and runs that wrap past the
    // table's end are all routine.
    const unsigned universe = 4 * g.frames;
    auto addr = [&](std::uint64_t blk) { return Addr(blk) * g.blockBytes(); };
    Tick now = 0;

    for (unsigned step = 0; step < steps; ++step) {
        unsigned what = unsigned(rng.uniform(100));
        Addr a = addr(rng.uniform(universe));
        if (what < 55) {
            // A processor access: hit, or miss + victim + install.
            Frame *f = cb.find(a);
            ASSERT_EQ(f, model.find(a)) << "step " << step;
            if (!f) {
                Frame *v = cb.victim(a);
                ASSERT_EQ(v, model.victim(a)) << "step " << step;
                v->state = Inv;    // evicted (a full set's LRU frame)
                cb.install(*v, a);
                model.install(*v, a);
                v->state = rng.chance(0.1) ? LkSrcDty : Rd;
                f = v;
            }
            cb.touch(*f, ++now);
        } else if (what < 75) {
            // Snooped invalidation: the protocol flips the state in
            // place, leaving a stale index entry behind.
            Frame &f = model.frame(unsigned(rng.uniform(g.frames)));
            f.state = Inv;
        } else if (what < 85) {
            // Lock or unlock a resident block.
            Frame &f = model.frame(unsigned(rng.uniform(g.frames)));
            if (f.valid())
                f.state = isLocked(f.state) ? Rd : LkSrcDty;
        } else {
            // Rebind a frame to another block of its own set, valid or
            // not, after dropping any other copy of that block.
            unsigned fi = unsigned(rng.uniform(g.frames));
            Frame &f = model.frame(fi);
            std::uint64_t sets = g.sets();
            std::uint64_t set = g.ways ? fi / g.ways : 0;
            Addr b = addr(rng.uniform(universe / sets) * sets + set);
            if (Frame *other = cb.find(b)) {
                ASSERT_EQ(other, model.find(b));
                other->state = Inv;
            } else {
                ASSERT_EQ(model.find(b), nullptr);
            }
            f.state = Inv;
            cb.install(f, b);
            model.install(f, b);
            f.state = Rd;
            cb.touch(f, ++now);
        }
        // The index never disagrees with the model or with a scan.
        for (unsigned k = 0; k < 3; ++k) {
            Addr p = addr(rng.uniform(universe));
            Frame *got = cb.find(p);
            ASSERT_EQ(got, model.find(p)) << "step " << step;
            ASSERT_EQ(got, model.scan(p)) << "step " << step;
        }
    }
    for (unsigned b = 0; b < universe; ++b) {
        Frame *got = cb.find(addr(b));
        EXPECT_EQ(got, model.find(addr(b)));
        EXPECT_EQ(got, model.scan(addr(b)));
    }
}

} // namespace

TEST(CacheBlocksProperty, FlatIndexMatchesHintMapModel)
{
    const unsigned geoms[][2] = {
        {1, 0}, {2, 0}, {3, 0}, {4, 0}, {12, 0}, {64, 0},
        {4, 2}, {8, 4}, {12, 3}, {64, 4}, {16, 1},
    };
    for (const auto &fw : geoms) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            fuzzIndex(geom(fw[0], fw[1]), seed * 7919 + fw[0], 4000);
    }
}

TEST(CacheBlocksProperty, FullyLockedSetPurgesItsLruFrame)
{
    // Every frame of a set locked: the victim is the set's LRU frame,
    // and after the purge the index serves the new block only.
    CacheBlocks cb(geom(8, 4));
    Addr stride = 2 * 32;    // same set every 2 blocks
    Frame *first = nullptr;
    for (unsigned i = 0; i < 4; ++i) {
        Addr a = 0x1000 + i * stride;
        Frame *f = cb.victim(a);
        ASSERT_FALSE(f->valid());
        cb.install(*f, a);
        f->state = LkSrcDty;
        cb.touch(*f, 10 + i);
        if (!first)
            first = f;
    }
    Addr incoming = 0x1000 + 4 * stride;
    Frame *v = cb.victim(incoming);
    EXPECT_EQ(v, first);
    v->state = Inv;
    cb.install(*v, incoming);
    v->state = Rd;
    EXPECT_EQ(cb.find(0x1000), nullptr);
    EXPECT_EQ(cb.find(incoming), v);
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_NE(cb.find(0x1000 + i * stride), nullptr);
}

TEST(CacheBlocksProperty, CopiesIndexIndependently)
{
    // Copies are independent arrays with their own index (the benchmark
    // keeps a vector of them).
    CacheBlocks a(geom(4, 0));
    Frame *f = a.victim(0x1000);
    a.install(*f, 0x1000);
    f->state = Rd;
    CacheBlocks b = a;
    ASSERT_NE(b.find(0x1000), nullptr);
    EXPECT_NE(b.find(0x1000), a.find(0x1000));
    b.find(0x1000)->state = Inv;
    EXPECT_EQ(b.find(0x1000), nullptr);
    EXPECT_EQ(a.find(0x1000), f);
}
