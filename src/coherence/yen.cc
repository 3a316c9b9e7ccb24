#include "coherence/yen.hh"

#include "cache/cache.hh"

namespace csync
{

Features
YenProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = false;
    ft.busInvalidateSignal = true;
    ft.fetchUnsharedForWrite = 'S';
    ft.atomicRmw = false;
    ft.flushPolicy = "F";
    ft.sourcePolicy = "";
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;
    return ft;
}

std::vector<State>
YenProtocol::statesUsed() const
{
    return {Inv, Rd, WrCln, WrSrcDty};
}

ProcAction
YenProtocol::procRead(Cache &, Frame *f, const MemOp &op)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    if (op.privateHint) {
        // Read-for-write-privilege instruction: only affects misses
        // (Feature 5 static).
        return ProcAction::busFinal(BusReq::ReadExclusive);
    }
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
YenProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state)) {
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    if (f && isValid(f->state))
        return ProcAction::busFinal(BusReq::Upgrade, true);
    return ProcAction::busFinal(BusReq::ReadExclusive);
}

void
YenProtocol::finishBus(Cache &, const BusMsg &msg, const SnoopResult &,
                       Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        f.state = Rd;
        break;
      case BusReq::ReadExclusive:
        // The privateHint is only carried by read instructions: a
        // hinted read-for-write ends clean (like Goodman's Reserved); a
        // write miss ends dirty.
        f.state = msg.privateHint ? WrCln : WrSrcDty;
        break;
      case BusReq::Upgrade:
        f.state = WrSrcDty;
        break;
      default:
        panic("yen: unexpected bus completion %s", busReqName(msg.req));
    }
}

SnoopReply
YenProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (f->state == WrSrcDty) {
            r.source = true;
            r.supplyData = true;
            r.dirty = false;
            r.flushToMemory = true;    // Feature 7 'F'
        }
        if (canWrite(f->state))
            f->state = Rd;
        return r;

      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::WriteNoFetch:
        r.hasCopy = true;
        if (f->state == WrSrcDty && msg.req == BusReq::ReadExclusive) {
            r.source = true;
            r.supplyData = true;
            r.flushToMemory = true;
        }
        f->state = Inv;
        return r;

      case BusReq::Upgrade:
        r.hasCopy = true;
        f->state = Inv;
        return r;

      case BusReq::IOReadKeepSource:
        r.hasCopy = true;
        if (f->state == WrSrcDty) {
            r.source = true;
            r.supplyData = true;
            r.dirty = true;
        }
        return r;

      default:
        return r;
    }
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "yen", [] { return std::make_unique<YenProtocol>(); });
} // anonymous namespace

} // namespace csync
