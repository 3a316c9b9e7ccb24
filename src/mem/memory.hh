/**
 * @file
 * Main memory for a full-broadcast system.  Per the paper (A.2), memory is
 * deliberately simple: it holds data, and optionally two kinds of per-block
 * tag state that specific protocols require:
 *
 *  - Frank/Synapse's *source bit* (Feature 2): set when some cache owns the
 *    latest version, telling memory not to supply the block;
 *  - the Bitar proposal's *lock tag* fallback (Section E.3, "Two
 *    Concerns"): when a locked block must be purged from a small-set cache,
 *    its lock (and waiter) bit moves to memory.
 */

#ifndef CSYNC_MEM_MEMORY_HH
#define CSYNC_MEM_MEMORY_HH

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace csync
{

/**
 * Word-addressable backing store with per-block tag state.
 */
class Memory : public SimObject
{
  public:
    /**
     * @param name Instance name.
     * @param eq Event queue.
     * @param block_words Words per cache block (for block reads/writes).
     * @param stats_parent Statistics parent group.
     */
    Memory(std::string name, EventQueue *eq, unsigned block_words,
           stats::Group *stats_parent);

    /** Words per block. */
    unsigned blockWords() const { return blockWords_; }

    /** Block-align an address. */
    Addr
    blockAlign(Addr a) const
    {
        return a & ~(Addr(blockWords_) * bytesPerWord - 1);
    }

    /** Read a whole block into @p out (zero-filled if never written);
     *  @p out keeps its capacity, so a reused buffer never reallocates. */
    void readBlock(Addr block_addr, std::vector<Word> *out);

    /** Inspect a block without touching statistics (checkers, tests). */
    std::vector<Word> peekBlock(Addr block_addr) const;

    /** Write a whole block. */
    void writeBlock(Addr block_addr, const std::vector<Word> &data);

    /** Read one word. */
    Word readWord(Addr word_addr);

    /** Write one word. */
    void writeWord(Addr word_addr, Word value);

    /** @name Frank-style source bit (memory knows a cache owns the block) */
    /// @{
    bool cacheOwned(Addr block_addr) const;
    void setCacheOwned(Addr block_addr, bool owned);
    /// @}

    /** @name Bitar lock-tag fallback for purged locked blocks */
    /// @{
    bool memLocked(Addr block_addr) const;
    bool memWaiter(Addr block_addr) const;
    /** Record/clear a lock tag; @p holder is the cache that holds it. */
    void setMemLock(Addr block_addr, bool locked, NodeId holder);
    void setMemWaiter(Addr block_addr, bool waiter);
    NodeId memLockHolder(Addr block_addr) const;
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar blockReads;
    stats::Scalar blockWrites;
    stats::Scalar wordReads;
    stats::Scalar wordWrites;
    /// @}

  private:
    struct LockTag
    {
        bool waiter = false;
        NodeId holder = invalidNode;
    };

    unsigned blockWords_;
    std::unordered_map<Addr, std::vector<Word>> store_;
    std::unordered_set<Addr> ownedBlocks_;
    std::unordered_map<Addr, LockTag> lockTags_;
};

} // namespace csync

#endif // CSYNC_MEM_MEMORY_HH
