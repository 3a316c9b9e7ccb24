#include "coherence/berkeley.hh"

#include "cache/cache.hh"

namespace csync
{

Features
BerkeleyProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::DualPortedRead;
    ft.directorySpecified = true;
    ft.busInvalidateSignal = true;
    ft.fetchUnsharedForWrite = 'S';
    ft.atomicRmw = true;
    ft.flushPolicy = "NF,S";
    ft.sourcePolicy = "MEM";
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;
    return ft;
}

std::vector<State>
BerkeleyProtocol::statesUsed() const
{
    return {Inv, Rd, RdSrcDty, WrSrcCln, WrSrcDty};
}

ProcAction
BerkeleyProtocol::procRead(Cache &, Frame *f, const MemOp &op)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    if (op.privateHint)
        return ProcAction::busFinal(BusReq::ReadExclusive);
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
BerkeleyProtocol::procWrite(Cache &, Frame *f, const MemOp &)
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
BerkeleyProtocol::finishBus(Cache &, const BusMsg &msg,
                            const SnoopResult &, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        // The requester never takes source status: a single source per
        // block, kept by the provider (Feature 8 'MEM').
        f.state = Rd;
        break;
      case BusReq::ReadExclusive:
        // Clean write state only on a (hinted) read miss to unshared
        // data (Section F.2).
        f.state = msg.privateHint ? WrSrcCln : WrSrcDty;
        break;
      case BusReq::Upgrade:
        f.state = WrSrcDty;
        break;
      default:
        panic("berkeley: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
BerkeleyProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (f->state == WrSrcDty || f->state == RdSrcDty) {
            // Owner supplies without flushing; the block stays dirty in
            // the owner, which converts write-dirty to read-dirty
            // (the dirty read state, Section F.2).
            r.source = true;
            r.supplyData = true;
            r.dirty = true;
            f->state = RdSrcDty;
        } else if (f->state == WrSrcCln) {
            // As published, the clean write state has source status too
            // (the inconsistency Feature 7 discusses).
            r.source = true;
            r.supplyData = true;
            r.dirty = false;
            f->state = Rd;
        }
        return r;

      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::WriteNoFetch:
        r.hasCopy = true;
        if (isSource(f->state) && msg.req == BusReq::ReadExclusive) {
            r.source = true;
            r.supplyData = true;
            r.dirty = isDirty(f->state);
        }
        f->state = Inv;
        return r;

      case BusReq::Upgrade:
        r.hasCopy = true;
        f->state = Inv;
        return r;

      case BusReq::IOReadKeepSource:
        r.hasCopy = true;
        if (isSource(f->state)) {
            r.source = true;
            r.supplyData = true;
            r.dirty = isDirty(f->state);
        }
        return r;

      default:
        return r;
    }
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "berkeley", [] { return std::make_unique<BerkeleyProtocol>(); });
} // anonymous namespace

} // namespace csync
