/**
 * @file
 * Adaptive hybrid update/invalidate protocol decorator (Dovgopol &
 * Rosonke, generalizing the paper's D.2/E.4 write-policy analysis).
 * The paper treats write-update vs write-invalidate as a static design
 * choice; the decorator makes it a per-block, runtime one.
 *
 * Each block carries a small saturating-counter policy record.  A run
 * of broadcast word updates that nobody consumed ("wasted updates")
 * flips the block to invalidate mode; a run of remote re-read misses
 * while invalidating ("remote re-reads") flips it back to update mode.
 * Counters reset on every flip, giving the switch hysteresis.
 *
 * Two variants ship:
 *  - adaptive_du: Dragon underneath, blocks start in update mode;
 *  - adaptive_bi: Berkeley underneath, blocks start in invalidate mode.
 *
 * Both reuse the parent's states plus Dragon's shared-clean /
 * shared-modified pair for the update-mode sharing set, so the System's
 * state invariants hold unchanged.
 */

#ifndef CSYNC_COHERENCE_ADAPTIVE_HH
#define CSYNC_COHERENCE_ADAPTIVE_HH

#include <map>
#include <memory>
#include <string>

#include "coherence/protocol.hh"

namespace csync
{

/** Per-block write policy a block is currently following. */
enum class AdaptiveMode : std::uint8_t
{
    /** Broadcast word updates to other copies (Dragon-style). */
    Update,
    /** Invalidate other copies and write locally (Berkeley-style). */
    Invalidate,
};

/** Tuning knobs for the adaptive_* protocols (SystemConfig::adaptive). */
struct AdaptiveTuning
{
    /** Width of the per-block saturating counters, 1..8 bits. */
    unsigned counterBits = 2;
    /**
     * Consecutive unconsumed updates that flip a block to invalidate
     * mode; 0 pins update-mode blocks to update mode forever.
     */
    unsigned invalidateThreshold = 2;
    /**
     * Remote re-reads that flip an invalidating block back to update
     * mode; 0 pins invalidate-mode blocks to invalidate mode forever.
     */
    unsigned updateThreshold = 2;

    /** Saturation value of a counter. */
    unsigned counterMax() const { return (1u << counterBits) - 1; }

    /** True if every field still holds its default. */
    bool isDefault() const
    {
        return counterBits == 2 && invalidateThreshold == 2 &&
               updateThreshold == 2;
    }
};

/**
 * The hybrid decorator: forwards to the wrapped parent protocol, but
 * intercepts the write path (update vs invalidate by per-block mode),
 * the UpdateWord/Upgrade bus machinery, and the snoops that feed the
 * utility counters.
 */
class AdaptiveProtocol : public Protocol
{
  public:
    AdaptiveProtocol(std::unique_ptr<Protocol> inner, std::string name,
                     AdaptiveMode initial);

    std::string name() const override { return name_; }
    std::string citation() const override;
    ProtocolStyle style() const override { return ProtocolStyle::Hybrid; }
    bool supportsLockOps() const override;
    bool supportsWriteNoFetch() const override;
    Features features() const override;
    std::vector<State> statesUsed() const override;

    /** The base-class procRmw/procWriteNoFetch defaults dispatch through
     *  the virtual procWrite below, so they need no forwarding here. */
    ProcAction procRead(Cache &c, Frame *f, const MemOp &op) override;
    ProcAction procWrite(Cache &c, Frame *f, const MemOp &op) override;

    void finishBus(Cache &c, const BusMsg &msg, const SnoopResult &res,
                   Frame &f) override;
    SnoopReply snoop(Cache &c, const BusMsg &msg, Frame *f) override;
    bool evictNeedsWriteback(Cache &c, const Frame &f) const override;
    void onEvict(Cache &c, Frame &f) override;
    std::string snapshotState() const override;
    void checkpoint(CheckpointWords &out) const override;
    void restore(WordReader &in) override;

    /** Replace the tuning (System applies SystemConfig::adaptive). */
    void setTuning(const AdaptiveTuning &t) { tuning_ = t; }
    const AdaptiveTuning &tuning() const { return tuning_; }

    /** Current write policy of @p block_addr (tests, diagnostics). */
    AdaptiveMode modeOf(Addr block_addr) const;

    /** The wrapped parent protocol. */
    const Protocol &inner() const { return *inner_; }

  protected:
    /** Per-block policy record; absent means (initial, 0, 0). */
    struct BlockPolicy
    {
        AdaptiveMode mode;
        /** Broadcast updates since the last remote consumption. */
        unsigned wasted = 0;
        /** Remote re-reads since the block went invalidate-mode. */
        unsigned rereads = 0;
    };

    BlockPolicy &policyAt(Addr block_addr);
    void noteWastedUpdate(Addr block_addr);
    void noteRemoteReread(Addr block_addr);

    std::unique_ptr<Protocol> inner_;
    std::string name_;
    AdaptiveMode initial_;
    AdaptiveTuning tuning_;
    std::map<Addr, BlockPolicy> policy_;
};

} // namespace csync

#endif // CSYNC_COHERENCE_ADAPTIVE_HH
