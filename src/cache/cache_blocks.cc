#include "cache/cache_blocks.hh"

namespace csync
{

CacheBlocks::CacheBlocks(const CacheGeometry &geom) : geom_(geom)
{
    sim_assert(geom_.frames > 0, "cache needs at least one frame");
    sim_assert(geom_.blockWords > 0, "block size must be positive");
    sim_assert((geom_.blockWords & (geom_.blockWords - 1)) == 0,
               "block words must be a power of two");
    frames_.resize(geom_.frames);
    for (auto &f : frames_)
        f.data.assign(geom_.blockWords, 0);
    // At most one entry per frame (install() drops the old binding), so
    // a table of twice the frame count stays at most half full.
    std::size_t slots = 2;
    indexShift_ = 63;
    while (slots < std::size_t(geom_.frames) * 2) {
        slots *= 2;
        --indexShift_;
    }
    index_.resize(slots);
}

std::size_t
CacheBlocks::homeSlot(Addr block_addr) const
{
    // Fibonacci hashing: the top bits of a multiplicative hash.
    return std::size_t((std::uint64_t(block_addr) * 0x9E3779B97F4A7C15ull) >>
                       indexShift_);
}

std::size_t
CacheBlocks::slotOf(Addr block_addr) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t i = homeSlot(block_addr);
    while (index_[i].frame != kEmpty && index_[i].blockAddr != block_addr)
        i = (i + 1) & mask;
    return i;
}

void
CacheBlocks::eraseSlot(std::size_t i)
{
    // Backward-shift deletion: an entry later in the run moves into the
    // hole unless its home slot lies cyclically in (hole, entry].
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (i + 1) & mask; index_[j].frame != kEmpty;
         j = (j + 1) & mask) {
        std::size_t home = homeSlot(index_[j].blockAddr);
        if (((j - home) & mask) >= ((j - i) & mask)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i] = Slot{};
}

unsigned
CacheBlocks::setIndex(Addr block_addr) const
{
    if (geom_.ways == 0)
        return 0;
    return unsigned((block_addr / geom_.blockBytes()) % geom_.sets());
}

std::pair<unsigned, unsigned>
CacheBlocks::setRange(Addr block_addr) const
{
    if (geom_.ways == 0)
        return {0, geom_.frames};
    unsigned set = setIndex(block_addr);
    return {set * geom_.ways, (set + 1) * geom_.ways};
}

Frame *
CacheBlocks::find(Addr block_addr)
{
    std::size_t i = slotOf(block_addr);
    if (index_[i].frame == kEmpty)
        return nullptr;
    Frame &f = frames_[index_[i].frame];
    if (f.valid() && f.blockAddr == block_addr)
        return &f;
    // Stale hint: the frame was invalidated in place since this entry
    // was written.
    eraseSlot(i);
    return nullptr;
}

const Frame *
CacheBlocks::find(Addr block_addr) const
{
    return const_cast<CacheBlocks *>(this)->find(block_addr);
}

void
CacheBlocks::install(Frame &f, Addr block_addr)
{
    const std::uint32_t fi = std::uint32_t(&f - frames_.data());
    // Drop the frame's previous binding (unless another frame has since
    // taken that address over) so each frame owns at most one entry.
    std::size_t old = slotOf(f.blockAddr);
    if (index_[old].frame == fi)
        eraseSlot(old);
    f.blockAddr = block_addr;
    index_[slotOf(block_addr)] = Slot{block_addr, fi};
}

Frame *
CacheBlocks::victim(Addr block_addr)
{
    auto [lo, hi] = setRange(block_addr);
    Frame *lru_unlocked = nullptr;
    Frame *lru_any = nullptr;
    for (unsigned i = lo; i < hi; ++i) {
        Frame &f = frames_[i];
        if (!f.valid())
            return &f;
        if (!lru_any || f.lastUse < lru_any->lastUse)
            lru_any = &f;
        if (!isLocked(f.state) &&
            (!lru_unlocked || f.lastUse < lru_unlocked->lastUse)) {
            lru_unlocked = &f;
        }
    }
    if (lru_unlocked)
        return lru_unlocked;
    return lru_any;
}

void
CacheBlocks::forEachValid(const std::function<void(Frame &)> &fn)
{
    for (auto &f : frames_)
        if (f.valid())
            fn(f);
}

void
CacheBlocks::forEachValid(const std::function<void(const Frame &)> &fn) const
{
    for (const auto &f : frames_)
        if (f.valid())
            fn(f);
}

unsigned
CacheBlocks::validCount() const
{
    unsigned n = 0;
    for (const auto &f : frames_)
        if (f.valid())
            ++n;
    return n;
}

} // namespace csync
