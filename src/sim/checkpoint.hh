/**
 * @file
 * Word streams for quiescent checkpoints (System::checkpoint).  The
 * polymorphic layers (statistics, protocols, arbitration policies)
 * append their mutable state to a CheckpointWords buffer and read it
 * back, in the same order, through a WordReader.  The buffer keeps its
 * capacity between checkpoints, so a reused checkpoint never allocates.
 */

#ifndef CSYNC_SIM_CHECKPOINT_HH
#define CSYNC_SIM_CHECKPOINT_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace csync
{

/** A layer's saved mutable state, as 64-bit words. */
using CheckpointWords = std::vector<std::uint64_t>;

/** Append @p d bit-exactly. */
inline void
putDouble(CheckpointWords &out, double d)
{
    out.push_back(std::bit_cast<std::uint64_t>(d));
}

/** Read cursor over a CheckpointWords buffer. */
class WordReader
{
  public:
    explicit WordReader(const CheckpointWords &words)
        : p_(words.data()), end_(words.data() + words.size())
    {
    }

    std::uint64_t
    next()
    {
        sim_assert(p_ != end_, "checkpoint word stream overrun");
        return *p_++;
    }

    double nextDouble() { return std::bit_cast<double>(next()); }

    /** True once every saved word has been read back. */
    bool done() const { return p_ == end_; }

  private:
    const std::uint64_t *p_;
    const std::uint64_t *end_;
};

} // namespace csync

#endif // CSYNC_SIM_CHECKPOINT_HH
