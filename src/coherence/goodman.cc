#include "coherence/goodman.hh"

#include "cache/cache.hh"

namespace csync
{

Features
GoodmanProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = true;
    ft.busInvalidateSignal = false;    // invalidation write-through
    ft.fetchUnsharedForWrite = 0;
    ft.atomicRmw = false;
    ft.flushPolicy = "F";
    ft.sourcePolicy = "";              // dirty blocks only
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;
    return ft;
}

std::vector<State>
GoodmanProtocol::statesUsed() const
{
    // Invalid, Valid, Reserved, Dirty.
    return {Inv, Rd, WrCln, WrSrcDty};
}

ProcAction
GoodmanProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
GoodmanProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state)) {
        // Reserved -> Dirty on the second write; Dirty stays Dirty.
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    if (f && isValid(f->state)) {
        // Write-once: the first write goes through to memory and
        // invalidates other copies (the Multibus has no invalidate
        // signal); the block stays clean (Reserved).
        return ProcAction::busFinal(BusReq::WriteWord);
    }
    // Write miss: fetch as a read, then write-once.
    return ProcAction::bus(BusReq::ReadShared);
}

void
GoodmanProtocol::finishBus(Cache &, const BusMsg &msg,
                           const SnoopResult &, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        f.state = Rd;
        break;
      case BusReq::WriteWord:
        // Write-once done: Reserved (clean, write privilege).
        f.state = WrCln;
        break;
      case BusReq::ReadExclusive:
        // Only issued on behalf of generic RMW support paths; treat as
        // gaining sole access.
        f.state = WrSrcDty;
        break;
      default:
        panic("goodman: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
GoodmanProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (f->state == WrSrcDty) {
            // Source of a dirty block: supply it and flush it to memory
            // concurrently, so it arrives clean (Feature 7 'F').
            r.source = true;
            r.supplyData = true;
            r.dirty = false;        // arrives clean after the flush
            r.flushToMemory = true;
            f->state = Rd;
        } else if (canWrite(f->state)) {
            // Reserved: another reader appears; fall back to Valid.
            f->state = Rd;
        }
        return r;

      case BusReq::WriteWord:
        // Invalidation write-through: drop our copy.  A dirty copy can
        // only be hit by a *stale* write-once (the writer lost its own
        // copy after deciding); flush it first so no data is lost —
        // the bus applies the flush before the word write.
        r.hasCopy = true;
        if (f->state == WrSrcDty)
            r.flushedFirst = true;
        f->state = Inv;
        return r;

      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::Upgrade:
      case BusReq::WriteNoFetch:
        r.hasCopy = true;
        if (f->state == WrSrcDty && msg.req == BusReq::ReadExclusive) {
            r.source = true;
            r.supplyData = true;
            r.flushToMemory = true;
        }
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
    "goodman", [] { return std::make_unique<GoodmanProtocol>(); });
} // anonymous namespace

} // namespace csync
