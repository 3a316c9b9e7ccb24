#include "coherence/adaptive.hh"

#include <algorithm>

#include "cache/cache.hh"
#include "sim/logging.hh"

namespace csync
{

namespace
{
// Dragon's sharing-set states (file-local there as well): the update-mode
// consumer and owner states both decorator variants use.
constexpr State SharedClean = BitValid | BitShared;
constexpr State SharedMod = BitValid | BitSource | BitDirty | BitShared;
} // anonymous namespace

AdaptiveProtocol::AdaptiveProtocol(std::unique_ptr<Protocol> inner,
                                   std::string name, AdaptiveMode initial)
    : inner_(std::move(inner)), name_(std::move(name)), initial_(initial)
{
}

std::string
AdaptiveProtocol::citation() const
{
    return "Dovgopol & Rosonke (hybrid over " + inner_->name() + ")";
}

bool
AdaptiveProtocol::supportsLockOps() const
{
    return inner_->supportsLockOps();
}

bool
AdaptiveProtocol::supportsWriteNoFetch() const
{
    return inner_->supportsWriteNoFetch();
}

Features
AdaptiveProtocol::features() const
{
    Features ft = inner_->features();
    // The decorator can always invalidate with the one-cycle signal and
    // always broadcast word updates, whichever parent it wraps.
    ft.busInvalidateSignal = true;
    return ft;
}

std::vector<State>
AdaptiveProtocol::statesUsed() const
{
    std::vector<State> s = inner_->statesUsed();
    for (State extra : {SharedClean, SharedMod}) {
        if (std::find(s.begin(), s.end(), extra) == s.end())
            s.push_back(extra);
    }
    return s;
}

AdaptiveProtocol::BlockPolicy &
AdaptiveProtocol::policyAt(Addr block_addr)
{
    auto it = policy_.find(block_addr);
    if (it == policy_.end())
        it = policy_.emplace(block_addr, BlockPolicy{initial_, 0, 0}).first;
    return it->second;
}

AdaptiveMode
AdaptiveProtocol::modeOf(Addr block_addr) const
{
    auto it = policy_.find(block_addr);
    return it == policy_.end() ? initial_ : it->second.mode;
}

void
AdaptiveProtocol::noteWastedUpdate(Addr block_addr)
{
    BlockPolicy &p = policyAt(block_addr);
    if (p.mode != AdaptiveMode::Update)
        return;
    if (p.wasted < tuning_.counterMax())
        ++p.wasted;
    if (tuning_.invalidateThreshold != 0 &&
        p.wasted >= tuning_.invalidateThreshold) {
        // Nobody consumed a whole run of broadcasts: stop paying for
        // them and invalidate on the next shared write instead.
        p = BlockPolicy{AdaptiveMode::Invalidate, 0, 0};
    }
}

void
AdaptiveProtocol::noteRemoteReread(Addr block_addr)
{
    BlockPolicy &p = policyAt(block_addr);
    if (p.mode == AdaptiveMode::Update) {
        // A consumer exists: the broadcasts were not wasted after all.
        p.wasted = 0;
        return;
    }
    if (p.rereads < tuning_.counterMax())
        ++p.rereads;
    if (tuning_.updateThreshold != 0 &&
        p.rereads >= tuning_.updateThreshold) {
        // Readers keep coming back after each invalidation: broadcasting
        // the words is cheaper than their refetches.
        p = BlockPolicy{AdaptiveMode::Update, 0, 0};
    }
}

ProcAction
AdaptiveProtocol::procRead(Cache &c, Frame *f, const MemOp &op)
{
    return inner_->procRead(c, f, op);
}

ProcAction
AdaptiveProtocol::procWrite(Cache &c, Frame *f, const MemOp &op)
{
    if (f && isValid(f->state) && !canWrite(f->state)) {
        // A write that must announce itself on the bus: the block's
        // current policy decides between a Dragon-style word broadcast
        // and a Berkeley-style one-cycle invalidation.
        if (modeOf(f->blockAddr) == AdaptiveMode::Update)
            return ProcAction::busFinal(BusReq::UpdateWord, true, false);
        return ProcAction::busFinal(BusReq::Upgrade, true);
    }
    return inner_->procWrite(c, f, op);
}

void
AdaptiveProtocol::finishBus(Cache &c, const BusMsg &msg,
                            const SnoopResult &res, Frame &f)
{
    switch (msg.req) {
      case BusReq::UpdateWord:
        // The hit line tells us whether anyone consumed the broadcast.
        if (res.hit)
            noteWastedUpdate(msg.blockAddr);
        f.state = res.hit ? SharedMod : WrSrcDty;
        return;
      case BusReq::Upgrade:
        // Both parents end an upgrade as the sole dirty writer.
        f.state = WrSrcDty;
        return;
      default:
        inner_->finishBus(c, msg, res, f);
        return;
    }
}

SnoopReply
AdaptiveProtocol::snoop(Cache &c, const BusMsg &msg, Frame *f)
{
    if (f && isValid(f->state) && msg.req == BusReq::ReadShared)
        noteRemoteReread(f->blockAddr);

    if (msg.req == BusReq::UpdateWord) {
        // Handled here for both variants: Dragon's snoop would do the
        // same, Berkeley's has no update vocabulary at all.
        SnoopReply r;
        if (!f || !isValid(f->state))
            return r;
        r.hasCopy = true;
        unsigned idx =
            unsigned((msg.wordAddr - msg.blockAddr) / bytesPerWord);
        f->data[idx] = msg.wordData;
        // The writer becomes the owner; any ownership here is dropped.
        f->state = SharedClean;
        return r;
    }

    if (msg.req == BusReq::ReadShared && f && f->state == SharedMod) {
        // Update-mode owner supplies the latest version and stays owner.
        // (Dragon's snoop handles this itself, but Berkeley's exact
        // state match would fall through and let stale memory supply.)
        SnoopReply r;
        r.hasCopy = true;
        r.source = true;
        r.supplyData = true;
        r.dirty = true;
        return r;
    }

    return inner_->snoop(c, msg, f);
}

bool
AdaptiveProtocol::evictNeedsWriteback(Cache &c, const Frame &f) const
{
    return inner_->evictNeedsWriteback(c, f);
}

void
AdaptiveProtocol::onEvict(Cache &c, Frame &f)
{
    inner_->onEvict(c, f);
}

std::string
AdaptiveProtocol::snapshotState() const
{
    // Serialize only records that differ from the implicit default so
    // that "never touched" and "touched but still default" digest alike.
    std::string out;
    for (const auto &kv : policy_) {
        const BlockPolicy &p = kv.second;
        if (p.mode == initial_ && p.wasted == 0 && p.rereads == 0)
            continue;
        out += csprintf("%llx:%c%u/%u;",
                        (unsigned long long)kv.first,
                        p.mode == AdaptiveMode::Update ? 'U' : 'I',
                        p.wasted, p.rereads);
    }
    return out;
}

void
AdaptiveProtocol::checkpoint(CheckpointWords &out) const
{
    inner_->checkpoint(out);
    out.push_back(policy_.size());
    for (const auto &[addr, p] : policy_) {
        out.push_back(addr);
        out.push_back(std::uint64_t(p.mode));
        out.push_back(p.wasted);
        out.push_back(p.rereads);
    }
}

void
AdaptiveProtocol::restore(WordReader &in)
{
    inner_->restore(in);
    policy_.clear();
    for (std::uint64_t n = in.next(); n > 0; --n) {
        Addr addr = in.next();
        BlockPolicy &p = policy_[addr];
        p.mode = AdaptiveMode(in.next());
        p.wasted = unsigned(in.next());
        p.rereads = unsigned(in.next());
    }
}

namespace
{
const bool registered_du = ProtocolRegistry::registerProtocol(
    "adaptive_du", [] {
        return std::make_unique<AdaptiveProtocol>(
            makeProtocol("dragon"), "adaptive_du", AdaptiveMode::Update);
    });
const bool registered_bi = ProtocolRegistry::registerProtocol(
    "adaptive_bi", [] {
        return std::make_unique<AdaptiveProtocol>(
            makeProtocol("berkeley"), "adaptive_bi",
            AdaptiveMode::Invalidate);
    });
} // anonymous namespace

} // namespace csync
