#include "mem/memory.hh"

namespace csync
{

Memory::Memory(std::string name, EventQueue *eq, unsigned block_words,
               stats::Group *stats_parent)
    : SimObject(std::move(name), eq),
      statsGroup(this->name(), stats_parent),
      blockReads(&statsGroup, "blockReads", "block reads serviced"),
      blockWrites(&statsGroup, "blockWrites", "block writes (flushes)"),
      wordReads(&statsGroup, "wordReads", "single-word reads"),
      wordWrites(&statsGroup, "wordWrites", "single-word write-throughs"),
      blockWords_(block_words)
{
    sim_assert(block_words > 0, "memory needs a positive block size");
}

void
Memory::readBlock(Addr block_addr, std::vector<Word> *out)
{
    sim_assert(block_addr == blockAlign(block_addr),
               "unaligned block read %llx", (unsigned long long)block_addr);
    ++blockReads;
    auto it = store_.find(block_addr);
    if (it == store_.end())
        out->assign(blockWords_, 0);
    else
        *out = it->second;
}

std::vector<Word>
Memory::peekBlock(Addr block_addr) const
{
    auto it = store_.find(blockAlign(block_addr));
    if (it == store_.end())
        return std::vector<Word>(blockWords_, 0);
    return it->second;
}

void
Memory::writeBlock(Addr block_addr, const std::vector<Word> &data)
{
    sim_assert(block_addr == blockAlign(block_addr),
               "unaligned block write %llx", (unsigned long long)block_addr);
    sim_assert(data.size() == blockWords_, "bad block payload size %zu",
               data.size());
    ++blockWrites;
    store_[block_addr] = data;
}

Word
Memory::readWord(Addr word_addr)
{
    ++wordReads;
    Addr block = blockAlign(word_addr);
    auto it = store_.find(block);
    if (it == store_.end())
        return 0;
    return it->second[(word_addr - block) / bytesPerWord];
}

void
Memory::writeWord(Addr word_addr, Word value)
{
    ++wordWrites;
    Addr block = blockAlign(word_addr);
    auto it = store_.find(block);
    if (it == store_.end())
        it = store_.emplace(block, std::vector<Word>(blockWords_, 0)).first;
    it->second[(word_addr - block) / bytesPerWord] = value;
}

bool
Memory::cacheOwned(Addr block_addr) const
{
    return ownedBlocks_.count(blockAlign(block_addr)) > 0;
}

void
Memory::setCacheOwned(Addr block_addr, bool owned)
{
    if (owned)
        ownedBlocks_.insert(blockAlign(block_addr));
    else
        ownedBlocks_.erase(blockAlign(block_addr));
}

bool
Memory::memLocked(Addr block_addr) const
{
    return lockTags_.count(blockAlign(block_addr)) > 0;
}

bool
Memory::memWaiter(Addr block_addr) const
{
    auto it = lockTags_.find(blockAlign(block_addr));
    return it != lockTags_.end() && it->second.waiter;
}

void
Memory::setMemLock(Addr block_addr, bool locked, NodeId holder)
{
    Addr b = blockAlign(block_addr);
    if (locked)
        lockTags_[b] = LockTag{false, holder};
    else
        lockTags_.erase(b);
}

void
Memory::setMemWaiter(Addr block_addr, bool waiter)
{
    auto it = lockTags_.find(blockAlign(block_addr));
    if (it != lockTags_.end())
        it->second.waiter = waiter;
}

NodeId
Memory::memLockHolder(Addr block_addr) const
{
    auto it = lockTags_.find(blockAlign(block_addr));
    return it == lockTags_.end() ? invalidNode : it->second.holder;
}

} // namespace csync
