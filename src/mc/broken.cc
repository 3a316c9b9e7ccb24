#include "mc/broken.hh"

#include "cache/cache.hh"

namespace csync
{
namespace mc
{

DroppedInvalidateProtocol::DroppedInvalidateProtocol(
    std::unique_ptr<Protocol> inner)
    : inner_(std::move(inner))
{
}

std::string
DroppedInvalidateProtocol::name() const
{
    return "broken_noinval";
}

std::string
DroppedInvalidateProtocol::citation() const
{
    return "deliberately broken " + inner_->name() +
           " (dropped snoop invalidation)";
}

ProtocolStyle
DroppedInvalidateProtocol::style() const
{
    return inner_->style();
}

bool
DroppedInvalidateProtocol::supportsLockOps() const
{
    return inner_->supportsLockOps();
}

bool
DroppedInvalidateProtocol::supportsWriteNoFetch() const
{
    return inner_->supportsWriteNoFetch();
}

Features
DroppedInvalidateProtocol::features() const
{
    return inner_->features();
}

std::vector<State>
DroppedInvalidateProtocol::statesUsed() const
{
    return inner_->statesUsed();
}

ProcAction
DroppedInvalidateProtocol::procRead(Cache &c, Frame *f, const MemOp &op)
{
    return inner_->procRead(c, f, op);
}

ProcAction
DroppedInvalidateProtocol::procWrite(Cache &c, Frame *f, const MemOp &op)
{
    return inner_->procWrite(c, f, op);
}

ProcAction
DroppedInvalidateProtocol::procRmw(Cache &c, Frame *f, const MemOp &op)
{
    return inner_->procRmw(c, f, op);
}

ProcAction
DroppedInvalidateProtocol::procLockRead(Cache &c, Frame *f, const MemOp &op)
{
    return inner_->procLockRead(c, f, op);
}

ProcAction
DroppedInvalidateProtocol::procUnlockWrite(Cache &c, Frame *f,
                                           const MemOp &op)
{
    return inner_->procUnlockWrite(c, f, op);
}

ProcAction
DroppedInvalidateProtocol::procWriteNoFetch(Cache &c, Frame *f,
                                            const MemOp &op)
{
    return inner_->procWriteNoFetch(c, f, op);
}

void
DroppedInvalidateProtocol::finishBus(Cache &c, const BusMsg &msg,
                                     const SnoopResult &res, Frame &f)
{
    inner_->finishBus(c, msg, res, f);
}

SnoopReply
DroppedInvalidateProtocol::snoop(Cache &c, const BusMsg &msg, Frame *f)
{
    State before = f ? f->state : Inv;
    std::vector<Word> data = f ? f->data : std::vector<Word>();
    SnoopReply r = inner_->snoop(c, msg, f);
    if (f && isValid(before) && !isValid(f->state)) {
        // THE BUG: quietly keep the stale copy the inner protocol just
        // invalidated.  The requester proceeds believing it holds the
        // only (writable) version.
        f->state = before;
        f->data = std::move(data);
    }
    return r;
}

bool
DroppedInvalidateProtocol::evictNeedsWriteback(Cache &c,
                                               const Frame &f) const
{
    return inner_->evictNeedsWriteback(c, f);
}

void
DroppedInvalidateProtocol::onEvict(Cache &c, Frame &f)
{
    inner_->onEvict(c, f);
}

std::string
DroppedInvalidateProtocol::snapshotState() const
{
    return inner_->snapshotState();
}

void
DroppedInvalidateProtocol::checkpoint(CheckpointWords &out) const
{
    inner_->checkpoint(out);
}

void
DroppedInvalidateProtocol::restore(WordReader &in)
{
    inner_->restore(in);
}

StaleUpdateProtocol::StaleUpdateProtocol()
    : AdaptiveProtocol(makeProtocol("dragon"), "broken_adaptive",
                       AdaptiveMode::Update)
{
}

SnoopReply
StaleUpdateProtocol::snoop(Cache &c, const BusMsg &msg, Frame *f)
{
    bool had_copy = f && isValid(f->state);
    std::vector<Word> data = had_copy ? f->data : std::vector<Word>();
    SnoopReply r = AdaptiveProtocol::snoop(c, msg, f);
    if (msg.req == BusReq::UpdateWord && had_copy && isValid(f->state)) {
        // THE BUG: the handshake succeeded (hit line driven, ownership
        // handed to the writer) but the broadcast word never lands.
        f->data = std::move(data);
    }
    return r;
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "broken_noinval", [] {
        return std::make_unique<DroppedInvalidateProtocol>(
            makeProtocol("bitar"));
    });
const bool registered_adaptive = ProtocolRegistry::registerProtocol(
    "broken_adaptive", [] {
        return std::make_unique<StaleUpdateProtocol>();
    });
} // anonymous namespace

} // namespace mc
} // namespace csync
