/**
 * @file
 * A deliberately broken protocol variant for validating the model
 * checker: a decorator that forwards every policy decision to an inner
 * protocol but *drops invalidations* on the snooper side — the classic
 * lost-invalidate coherence bug (a cache quietly keeps its stale copy
 * when another cache gains write privilege).  Registered as
 * "broken_noinval" (wrapping the Bitar proposal) so the explorer can be
 * pointed at it by name; shippedProtocols() filters "broken_" names out
 * of the production set.
 *
 * A second seeded bug, "broken_adaptive", targets the hybrid decorator's
 * update path: the snooper acknowledges a word broadcast (state change
 * and hit line) but quietly keeps its stale data — a lost update.
 */

#ifndef CSYNC_MC_BROKEN_HH
#define CSYNC_MC_BROKEN_HH

#include <memory>

#include "coherence/adaptive.hh"
#include "coherence/protocol.hh"

namespace csync
{
namespace mc
{

/**
 * Forwards to @p inner, but restores any frame the inner protocol
 * invalidated during snoop — the injected bug.
 */
class DroppedInvalidateProtocol : public Protocol
{
  public:
    explicit DroppedInvalidateProtocol(std::unique_ptr<Protocol> inner);

    std::string name() const override;
    std::string citation() const override;
    ProtocolStyle style() const override;
    bool supportsLockOps() const override;
    bool supportsWriteNoFetch() const override;
    Features features() const override;
    std::vector<State> statesUsed() const override;

    ProcAction procRead(Cache &c, Frame *f, const MemOp &op) override;
    ProcAction procWrite(Cache &c, Frame *f, const MemOp &op) override;
    ProcAction procRmw(Cache &c, Frame *f, const MemOp &op) override;
    ProcAction procLockRead(Cache &c, Frame *f, const MemOp &op) override;
    ProcAction procUnlockWrite(Cache &c, Frame *f,
                               const MemOp &op) override;
    ProcAction procWriteNoFetch(Cache &c, Frame *f,
                                const MemOp &op) override;

    void finishBus(Cache &c, const BusMsg &msg, const SnoopResult &res,
                   Frame &f) override;
    SnoopReply snoop(Cache &c, const BusMsg &msg, Frame *f) override;

    bool evictNeedsWriteback(Cache &c, const Frame &f) const override;
    void onEvict(Cache &c, Frame &f) override;

    std::string snapshotState() const override;
    void checkpoint(CheckpointWords &out) const override;
    void restore(WordReader &in) override;

  private:
    std::unique_ptr<Protocol> inner_;
};

/**
 * The adaptive decorator with a seeded lost-update bug: a snooped word
 * broadcast goes through the normal machinery (ownership handoff, hit
 * line) but the snooper's data stays stale.
 */
class StaleUpdateProtocol : public AdaptiveProtocol
{
  public:
    StaleUpdateProtocol();

    SnoopReply snoop(Cache &c, const BusMsg &msg, Frame *f) override;
};

} // namespace mc
} // namespace csync

#endif // CSYNC_MC_BROKEN_HH
