#include "coherence/rudolph_segall.hh"

#include "cache/cache.hh"

namespace csync
{

namespace
{
constexpr State SharedRd = BitValid | BitShared;
constexpr State SharedWrote = BitValid | BitShared | BitWroteOnce;
} // anonymous namespace

Features
RudolphSegallProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = false;
    ft.busInvalidateSignal = true;    // second write invalidates
    ft.fetchUnsharedForWrite = 'D';
    ft.atomicRmw = true;              // first method: hold the memory unit
    ft.flushPolicy = "F";
    ft.sourcePolicy = "";        // shared blocks are clean; memory supplies
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;      // oriented around busy wait (E.4)
    return ft;
}

std::vector<State>
RudolphSegallProtocol::statesUsed() const
{
    return {Inv, SharedRd, SharedWrote, WrSrcCln, WrSrcDty};
}

ProcAction
RudolphSegallProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
RudolphSegallProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && isValid(f->state)) {
        if (canWrite(f->state)) {
            f->state = WrSrcDty;
            return ProcAction::hit();
        }
        if (wroteOnce(f->state)) {
            // Second write with no intervening access by another
            // processor: the block is unshared — invalidate the other
            // copies and switch to write-in.
            return ProcAction::busFinal(BusReq::Upgrade, true);
        }
        // First write to a shared block: broadcast write-through,
        // updating the other caches and main memory.
        return ProcAction::busFinal(BusReq::UpdateWord, true, true);
    }
    return ProcAction::bus(BusReq::ReadShared);
}

void
RudolphSegallProtocol::finishBus(Cache &, const BusMsg &msg,
                                 const SnoopResult &res, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        f.state = res.hit ? SharedRd : WrSrcCln;
        break;
      case BusReq::UpdateWord:
        // Remember we wrote once; if nobody shares the block any more,
        // take it private immediately (memory is current -> clean).
        f.state = res.hit ? SharedWrote : WrSrcCln;
        break;
      case BusReq::Upgrade:
        f.state = WrSrcDty;
        break;
      default:
        panic("rudolph_segall: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
RudolphSegallProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (canWrite(f->state)) {
            // Another processor accesses the block: supply it, flush if
            // dirty (write-through system keeps memory near-current),
            // and fall back to shared.
            r.source = true;
            r.supplyData = true;
            r.dirty = false;
            r.flushToMemory = isDirty(f->state);
        }
        // Any access by another processor resets the interleave
        // detector.
        f->state = SharedRd;
        return r;

      case BusReq::UpdateWord: {
        r.hasCopy = true;
        unsigned idx =
            unsigned((msg.wordAddr - msg.blockAddr) / bytesPerWord);
        f->data[idx] = msg.wordData;
        f->state = SharedRd;   // also clears our WroteOnce
        return r;
      }

      case BusReq::Upgrade:
      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::WriteNoFetch:
        r.hasCopy = true;
        if (isDirty(f->state) && msg.req == BusReq::ReadExclusive) {
            r.source = true;
            r.supplyData = true;
            r.dirty = true;
        }
        f->state = Inv;
        return r;

      case BusReq::IOReadKeepSource:
        r.hasCopy = true;
        if (isDirty(f->state)) {
            r.source = true;
            r.supplyData = true;
            r.dirty = true;
        }
        return r;

      default:
        return r;
    }
}

bool
RudolphSegallProtocol::evictNeedsWriteback(Cache &, const Frame &f) const
{
    return isDirty(f.state);
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "rudolph_segall",
    [] { return std::make_unique<RudolphSegallProtocol>(); });
} // anonymous namespace

} // namespace csync
