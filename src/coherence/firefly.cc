#include "coherence/firefly.hh"

#include "cache/cache.hh"

namespace csync
{

namespace
{
constexpr State SharedClean = BitValid | BitShared;
} // anonymous namespace

Features
FireflyProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWDS";
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = false;
    ft.busInvalidateSignal = false;
    ft.fetchUnsharedForWrite = 'D';
    ft.atomicRmw = true;
    ft.flushPolicy = "F";
    ft.sourcePolicy = "";        // shared blocks are clean; memory supplies
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;
    return ft;
}

std::vector<State>
FireflyProtocol::statesUsed() const
{
    return {Inv, SharedClean, WrSrcCln, WrSrcDty};
}

ProcAction
FireflyProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
FireflyProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && isValid(f->state)) {
        if (isSharedHint(f->state)) {
            // Shared write: update the other caches AND main memory.
            return ProcAction::busFinal(BusReq::UpdateWord, true, true);
        }
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    return ProcAction::bus(BusReq::ReadShared);
}

void
FireflyProtocol::finishBus(Cache &, const BusMsg &msg,
                           const SnoopResult &res, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        // A dirty supplier flushed concurrently, so shared copies are
        // always clean.
        f.state = res.hit ? SharedClean : WrSrcCln;
        break;
      case BusReq::UpdateWord:
        // Memory was updated too, so dropping to exclusive leaves the
        // block clean.
        f.state = res.hit ? SharedClean : WrSrcCln;
        break;
      default:
        panic("firefly: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
FireflyProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (canWrite(f->state)) {
            // Exclusive holder supplies; a Modified block is flushed
            // concurrently so everyone ends clean-shared.
            r.source = true;
            r.supplyData = true;
            r.dirty = false;
            r.flushToMemory = isDirty(f->state);
            f->state = SharedClean;
        }
        return r;

      case BusReq::UpdateWord: {
        r.hasCopy = true;
        unsigned idx =
            unsigned((msg.wordAddr - msg.blockAddr) / bytesPerWord);
        f->data[idx] = msg.wordData;
        f->state = SharedClean;
        return r;
      }

      case BusReq::ReadExclusive:
      case BusReq::IOInvalidate:
      case BusReq::Upgrade:
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
FireflyProtocol::evictNeedsWriteback(Cache &, const Frame &f) const
{
    return isDirty(f.state);
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "firefly", [] { return std::make_unique<FireflyProtocol>(); });
} // anonymous namespace

} // namespace csync
