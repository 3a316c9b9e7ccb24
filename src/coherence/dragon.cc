#include "coherence/dragon.hh"

#include "cache/cache.hh"

namespace csync
{

namespace
{
constexpr State SharedClean = BitValid | BitShared;
constexpr State SharedMod = BitValid | BitSource | BitDirty | BitShared;
} // anonymous namespace

Features
DragonProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = false;
    ft.busInvalidateSignal = false;   // shared writes update, never invalidate
    ft.fetchUnsharedForWrite = 'D';
    ft.atomicRmw = true;
    ft.flushPolicy = "NF,S";
    ft.sourcePolicy = "MEM";
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;     // waiters spin in-cache, but failed
                                      // test-and-sets still hit the bus
    return ft;
}

std::vector<State>
DragonProtocol::statesUsed() const
{
    return {Inv, SharedClean, SharedMod, WrSrcCln, WrSrcDty};
}

ProcAction
DragonProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
DragonProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && isValid(f->state)) {
        if (isSharedHint(f->state)) {
            // Write to a shared block: broadcast the word to the other
            // caches; memory is not updated (the writer becomes owner).
            return ProcAction::busFinal(BusReq::UpdateWord, true, false);
        }
        // Unshared: plain write-in.
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    // Write miss: fetch first, then the write replays (and broadcasts if
    // the block turned out shared).
    return ProcAction::bus(BusReq::ReadShared);
}

void
DragonProtocol::finishBus(Cache &, const BusMsg &msg,
                          const SnoopResult &res, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        f.state = res.hit ? SharedClean : WrSrcCln;
        break;
      case BusReq::UpdateWord:
        // The hit line tells us if anyone still shares the block.
        f.state = res.hit ? SharedMod : WrSrcDty;
        break;
      default:
        panic("dragon: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
DragonProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (isSource(f->state) || f->state == WrSrcCln ||
            f->state == WrSrcDty) {
            // Owner (or exclusive holder) supplies; no flush — the
            // owner keeps responsibility for the dirty data.
            r.source = isSource(f->state);
            r.supplyData = true;
            r.dirty = isDirty(f->state);
            f->state = isDirty(f->state) ? SharedMod : SharedClean;
        }
        return r;

      case BusReq::UpdateWord: {
        r.hasCopy = true;
        unsigned idx =
            unsigned((msg.wordAddr - msg.blockAddr) / bytesPerWord);
        f->data[idx] = msg.wordData;
        // The writer becomes the owner; we drop any ownership.
        f->state = SharedClean;
        return r;
      }

      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::Upgrade:
      case BusReq::WriteNoFetch:
        // Only I/O issues these in a Dragon system.
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
DragonProtocol::evictNeedsWriteback(Cache &, const Frame &f) const
{
    // Owners (Shared-Modified / Modified) hold the only current copy.
    return isDirty(f.state);
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "dragon", [] { return std::make_unique<DragonProtocol>(); });
} // anonymous namespace

} // namespace csync
