#include "coherence/synapse.hh"

#include "cache/cache.hh"

namespace csync
{

Features
SynapseProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWD";   // source bit lives in main memory
    ft.directory = DirectoryKind::IdenticalDual;
    ft.directorySpecified = true;
    ft.busInvalidateSignal = true;
    ft.fetchUnsharedForWrite = 0;
    ft.atomicRmw = true;
    ft.flushPolicy = "NF";
    ft.sourcePolicy = "";
    ft.writeNoFetch = false;
    ft.efficientBusyWait = false;
    return ft;
}

std::vector<State>
SynapseProtocol::statesUsed() const
{
    return {Inv, Rd, WrSrcDty};
}

ProcAction
SynapseProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
SynapseProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state))
        return ProcAction::hit();
    if (f && isValid(f->state))
        return ProcAction::busFinal(BusReq::Upgrade, true);
    return ProcAction::busFinal(BusReq::ReadExclusive);
}

void
SynapseProtocol::finishBus(Cache &c, const BusMsg &msg,
                           const SnoopResult &, Frame &f)
{
    switch (msg.req) {
      case BusReq::ReadShared:
        f.state = Rd;
        break;
      case BusReq::ReadExclusive:
      case BusReq::Upgrade:
        f.state = WrSrcDty;
        // Memory's source bit now points at this cache (Feature 2).
        c.memory().setCacheOwned(msg.blockAddr, true);
        break;
      default:
        panic("synapse: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
SynapseProtocol::snoop(Cache &c, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
        r.hasCopy = true;
        if (f->state == WrSrcDty) {
            // A source provides data only for a write-privilege request
            // (Table 1 note 1): for a read, flush to memory and let
            // memory supply on the retry.
            r.flushedFirst = true;
            f->state = Rd;
            c.memory().setCacheOwned(msg.blockAddr, false);
        }
        return r;

      case BusReq::ReadExclusive:
      case BusReq::Upgrade:
      case BusReq::IOInvalidate:
      case BusReq::WriteNoFetch:
        r.hasCopy = true;
        if (f->state == WrSrcDty && msg.req == BusReq::ReadExclusive) {
            // Write-privilege request: direct cache-to-cache transfer,
            // no flush (Feature 7 'NF').
            r.source = true;
            r.supplyData = true;
            r.dirty = true;
            c.memory().setCacheOwned(msg.blockAddr, false);
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

void
SynapseProtocol::onEvict(Cache &c, Frame &f)
{
    if (f.state == WrSrcDty)
        c.memory().setCacheOwned(f.blockAddr, false);
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "synapse", [] { return std::make_unique<SynapseProtocol>(); });
} // anonymous namespace

} // namespace csync
