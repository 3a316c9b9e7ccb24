/**
 * @file
 * The cache tag/data store: a set-associative (or fully associative)
 * collection of block frames with LRU replacement.  Replacement prefers
 * invalid frames, then the least-recently-used unlocked frame; a locked
 * frame is only ever chosen when every frame in the set is locked, which
 * triggers the paper's locked-block purge fallback (Section E.3).
 */

#ifndef CSYNC_CACHE_CACHE_BLOCKS_HH
#define CSYNC_CACHE_CACHE_BLOCKS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/block_state.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace csync
{

/** One cache block frame. */
struct Frame
{
    /** Block-aligned address of the cached block (meaningful if valid). */
    Addr blockAddr = 0;
    /** Coherence state (bitmask; see block_state.hh). */
    State state = Inv;
    /** Block contents. */
    std::vector<Word> data;
    /** Last-use tick for LRU. */
    Tick lastUse = 0;
    /** Per-transfer-unit dirty bits (Section D.3); empty when the
     *  transfer unit is the whole block. */
    std::vector<bool> unitDirty;

    bool valid() const { return isValid(state); }

    /** Number of dirty transfer units. */
    unsigned
    dirtyUnits() const
    {
        unsigned n = 0;
        for (bool b : unitDirty)
            n += b;
        return n;
    }
};

/**
 * Geometry of one cache.
 */
struct CacheGeometry
{
    /** Total number of block frames. */
    unsigned frames = 64;
    /** Associativity; 0 means fully associative (the paper's default for
     *  the lock scheme, Section E.3). */
    unsigned ways = 0;
    /** Words per block. */
    unsigned blockWords = 4;
    /** Transfer-unit size in words (Section D.3).  0 = whole block.
     *  When smaller than the block, each unit carries its own dirty
     *  status and a transfer moves only the requested unit plus all
     *  dirty units. */
    unsigned transferWords = 0;

    /** Block size in bytes. */
    Addr blockBytes() const { return Addr(blockWords) * bytesPerWord; }

    /** True when sub-block transfer units are enabled. */
    bool
    subBlockUnits() const
    {
        return transferWords != 0 && transferWords < blockWords;
    }

    /** Number of transfer units per block (1 when disabled). */
    unsigned
    unitsPerBlock() const
    {
        return subBlockUnits() ? blockWords / transferWords : 1;
    }

    /** Number of sets implied by frames/ways. */
    unsigned
    sets() const
    {
        if (ways == 0)
            return 1;
        sim_assert(frames % ways == 0, "frames %u not divisible by ways %u",
                   frames, ways);
        return frames / ways;
    }
};

/**
 * The tag/data array.
 */
class CacheBlocks
{
  public:
    explicit CacheBlocks(const CacheGeometry &geom);

    const CacheGeometry &geometry() const { return geom_; }

    /** Block-align an address. */
    Addr blockAlign(Addr a) const { return a & ~(geom_.blockBytes() - 1); }

    /** Set index for an address. */
    unsigned setIndex(Addr block_addr) const;

    /**
     * Find the valid frame holding @p block_addr, or nullptr.
     *
     * O(1): served from the address index rather than a frame scan.
     * Index entries are hints — a frame invalidated in place (protocols
     * flip Frame::state directly) leaves a stale entry behind, which
     * lookup validates against the frame and lazily discards.  The
     * invariant that makes a miss authoritative is that every
     * blockAddr assignment goes through install().
     *
     * The index is a linear-probing table sized at construction to
     * twice the frame count (rounded up to a power of two).  install()
     * drops a frame's previous entry, so it never holds more than one
     * entry per frame and never fills up or reallocates.
     */
    Frame *find(Addr block_addr);
    const Frame *find(Addr block_addr) const;

    /**
     * Bind @p f to @p block_addr and index it.  The only way a frame's
     * blockAddr may be (re)assigned — keeps the address index coherent.
     */
    void install(Frame &f, Addr block_addr);

    /**
     * Choose a frame for a new block in the set of @p block_addr: the
     * set's first invalid frame, else its least-recently-used unlocked
     * frame, else its least-recently-used frame.  If the result is
     * valid, the caller must evict it (it may even be locked — the
     * purge-locked-block case).
     */
    Frame *victim(Addr block_addr);

    /** Mark the frame most recently used. */
    void touch(Frame &f, Tick now) { f.lastUse = now; }

    /** Iterate all valid frames. */
    void forEachValid(const std::function<void(Frame &)> &fn);
    void forEachValid(const std::function<void(const Frame &)> &fn) const;

    /** Count valid frames. */
    unsigned validCount() const;

  private:
    /** One address-index slot: blockAddr -> frame index hint. */
    struct Slot
    {
        Addr blockAddr = 0;
        std::uint32_t frame = kEmpty;
    };
    static constexpr std::uint32_t kEmpty = ~std::uint32_t(0);

    CacheGeometry geom_;
    std::vector<Frame> frames_;
    /** Open-addressing address index (see find()); a power of two. */
    std::vector<Slot> index_;
    /** 64 - log2(index_.size()): Fibonacci-hash shift. */
    unsigned indexShift_ = 0;

    std::pair<unsigned, unsigned> setRange(Addr block_addr) const;

    /** Where @p block_addr's probe run starts. */
    std::size_t homeSlot(Addr block_addr) const;

    /** The slot holding @p block_addr, or the empty slot that ends its
     *  probe run. */
    std::size_t slotOf(Addr block_addr) const;

    /** Empty slot @p i, shifting later entries of its run back. */
    void eraseSlot(std::size_t i);
};

} // namespace csync

#endif // CSYNC_CACHE_CACHE_BLOCKS_HH
