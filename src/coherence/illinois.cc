#include "coherence/illinois.hh"

#include "cache/cache.hh"

namespace csync
{

Features
IllinoisProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = true;
    ft.busInvalidateSignal = true;
    ft.fetchUnsharedForWrite = 'D';
    ft.atomicRmw = true;
    ft.flushPolicy = "F";
    ft.sourcePolicy = "ARB";
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;
    return ft;
}

std::vector<State>
IllinoisProtocol::statesUsed() const
{
    // Invalid, Shared, Exclusive (clean), Modified.  Shared copies are
    // all potential sources (Feature 8 'ARB'), reflected behaviorally in
    // snoop() rather than in a Source state bit.
    return {Inv, Rd, WrSrcCln, WrSrcDty};
}

ProcAction
IllinoisProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
IllinoisProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state)) {
        // Exclusive -> Modified silently; Modified stays.
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    if (f && isValid(f->state))
        return ProcAction::busFinal(BusReq::Upgrade, true);
    return ProcAction::busFinal(BusReq::ReadExclusive);
}

void
IllinoisProtocol::finishBus(Cache &, const BusMsg &msg,
                            const SnoopResult &res, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        // Dynamic sharing determination via the hit line (Feature 5 'D').
        f.state = res.hit ? Rd : WrSrcCln;
        break;
      case BusReq::ReadExclusive:
      case BusReq::Upgrade:
        f.state = WrSrcDty;
        break;
      default:
        panic("illinois: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
IllinoisProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        // If a block is in any cache it is fetched from a cache rather
        // than from memory; every holder offers it and the bus
        // arbitrates (Feature 8 'ARB').
        r.supplyData = true;
        if (f->state == WrSrcDty) {
            // Modified: flushed to memory concurrently with the
            // transfer, so it arrives clean (Feature 7 'F').
            r.source = true;
            r.dirty = false;
            r.flushToMemory = true;
        }
        f->state = Rd;
        return r;

      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::WriteNoFetch:
        r.hasCopy = true;
        if (msg.req == BusReq::ReadExclusive) {
            r.supplyData = true;
            if (f->state == WrSrcDty) {
                r.source = true;
                r.flushToMemory = true;
            }
        }
        f->state = Inv;
        return r;

      case BusReq::Upgrade:
        r.hasCopy = true;
        f->state = Inv;
        return r;

      case BusReq::IOReadKeepSource:
        r.hasCopy = true;
        r.supplyData = true;
        r.dirty = isDirty(f->state);
        return r;

      default:
        return r;
    }
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "illinois", [] { return std::make_unique<IllinoisProtocol>(); });
} // anonymous namespace

} // namespace csync
