#include "core/bitar.hh"

#include "cache/cache.hh"

namespace csync
{

Features
BitarProtocol::features() const
{
    Features ft;
    ft.cacheToCache = true;
    ft.serializesConflicts = true;
    ft.distributedState = "RWLDS";
    ft.directory = DirectoryKind::NonIdenticalDual;
    ft.directorySpecified = true;
    ft.busInvalidateSignal = true;
    ft.fetchUnsharedForWrite = 'D';
    ft.atomicRmw = true;
    ft.flushPolicy = "NF,S";
    ft.sourcePolicy = "LRU,MEM";
    ft.writeNoFetch = true;
    ft.efficientBusyWait = true;
    return ft;
}

std::vector<State>
BitarProtocol::statesUsed() const
{
    return {Inv, Rd, RdSrcCln, RdSrcDty, WrSrcCln, WrSrcDty, LkSrcDty,
            LkSrcDtyWt};
}

ProcAction
BitarProtocol::procRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canRead(f->state))
        return ProcAction::hit();
    // Read miss: fetch; privilege decided by the hit line (Figure 1).
    return ProcAction::busFinal(BusReq::ReadShared);
}

ProcAction
BitarProtocol::procWrite(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state)) {
        // Write hit with privilege: silent, block becomes dirty.  Writes
        // while the block is locked keep the lock (Section E.3).
        f->state |= BitDirty;
        return ProcAction::hit();
    }
    if (f && isValid(f->state)) {
        // Valid copy without write privilege: one-cycle invalidation,
        // no data transfer (Figure 5).
        return ProcAction::busFinal(BusReq::Upgrade, true);
    }
    return ProcAction::busFinal(BusReq::ReadExclusive);
}

ProcAction
BitarProtocol::procRmw(Cache &c, Frame *f, const MemOp &)
{
    // Feature 6, fourth method: lock just the target atom in the cache.
    if (f && canWrite(f->state)) {
        if (hasWaiter(f->state)) {
            // Acquired via the busy-wait register: release with a
            // broadcast after the swap applies.
            return ProcAction::busFinal(BusReq::UnlockBroadcast);
        }
        if (isLocked(f->state) && !c.opLockFetched()) {
            // The lock was already held by this cache before the RMW
            // began (a program lock across the instruction): just a
            // write inside the critical section.
            f->state |= BitDirty;
            return ProcAction::hit();
        }
        // Lock-modify-unlock collapses to zero time (the transient
        // RMW lock — whether pre-owned or just fetched — is released).
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    if (f && isValid(f->state)) {
        // Privilege-only lock fetch, then replay to apply the swap.
        return ProcAction::bus(BusReq::ReadLock, true);
    }
    return ProcAction::bus(BusReq::ReadLock);
}

ProcAction
BitarProtocol::procLockRead(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state)) {
        // Zero-time locking (Section E.3).
        f->state = isLocked(f->state) ? f->state : LkSrcDty;
        return ProcAction::hit();
    }
    if (f && isValid(f->state))
        return ProcAction::busFinal(BusReq::ReadLock, true);
    return ProcAction::busFinal(BusReq::ReadLock);
}

ProcAction
BitarProtocol::procUnlockWrite(Cache &c, Frame *f, const MemOp &op)
{
    if (f && isLocked(f->state)) {
        if (hasWaiter(f->state)) {
            // Waiters exist: the unlock must be broadcast (Figure 8).
            return ProcAction::busFinal(BusReq::UnlockBroadcast);
        }
        // Zero-time unlock.
        f->state = WrSrcDty;
        return ProcAction::hit();
    }
    if (!f && c.holdsPurgedLock(c.blockAlign(op.addr))) {
        // The locked block was purged; re-fetch it as the lock holder
        // (the memory lock tag admits us), then replay the unlock.
        return ProcAction::bus(BusReq::ReadLock);
    }
    panic("cache %d: unlock of %llx which it has not locked", c.nodeId(),
          (unsigned long long)op.addr);
}

ProcAction
BitarProtocol::procWriteNoFetch(Cache &, Frame *f, const MemOp &)
{
    if (f && canWrite(f->state)) {
        f->state |= BitDirty;
        return ProcAction::hit();
    }
    // Claim the block with a one-cycle invalidation; no fetch
    // (Feature 9).
    return ProcAction::busFinal(BusReq::WriteNoFetch);
}

void
BitarProtocol::finishBus(Cache &c, const BusMsg &msg, const SnoopResult &res,
                         Frame &f)
{
    if (c.holdsPurgedLock(msg.blockAddr) && msg.req != BusReq::ReadLock) {
        // A fetch of any access class by the cache that purged this
        // block's lock reclaims the lock from its memory tag (Section
        // E.3).  Leaving the tag set while the local copy comes back
        // without its lock state would wedge every other cache behind
        // a lock nobody can release.  (The ReadLock branch below does
        // its own reclaim, with busy-wait arbitration on top.)
        Addr ba = msg.blockAddr;
        State s = LkSrcDty;
        if (c.memory().memWaiter(ba))
            s |= BitWaiter;
        c.memory().setMemLock(ba, false, invalidNode);
        c.notePurgedLock(ba, false);
        f.state = s;
        return;
    }
    switch (msg.req) {
      case BusReq::ReadShared:
        if (!res.hit) {
            // No other copy: assume write privilege so a later write
            // needs no bus access (Figure 1).
            f.state = WrSrcCln;
        } else if (res.supplier != invalidNode) {
            // Cache-to-cache transfer: dirty status travels with the
            // block; the last fetcher becomes the source (Figure 4).
            f.state = State(BitValid | BitSource |
                            (res.sourceDirty ? BitDirty : 0));
        } else {
            // Copies exist but no source: memory supplied (Figure 2);
            // the fetcher still becomes the new source.
            f.state = RdSrcCln;
        }
        break;

      case BusReq::ReadExclusive:
      case BusReq::Upgrade:
      case BusReq::WriteNoFetch:
        f.state = WrSrcDty;
        break;

      case BusReq::ReadLock: {
        State s = LkSrcDty;
        if (c.isBusyWaitRegisterRequest(msg)) {
            // Winner of the busy-wait arbitration: lock using the
            // lock-waiter state, "since that will probably be
            // appropriate" (Figure 9).
            s = LkSrcDtyWt;
        }
        Addr ba = msg.blockAddr;
        if (c.holdsPurgedLock(ba)) {
            // The lock returns from its memory tag (Section E.3).
            if (c.memory().memWaiter(ba))
                s |= BitWaiter;
            c.memory().setMemLock(ba, false, invalidNode);
            c.notePurgedLock(ba, false);
        }
        f.state = s;
        break;
      }

      case BusReq::UnlockBroadcast:
        sim_assert(isLocked(f.state), "unlock broadcast on unlocked block");
        f.state = WrSrcDty;
        ++c.unlockBroadcasts;
        break;

      default:
        panic("bitar: unexpected bus completion %s",
              busReqName(msg.req));
    }
}

SnoopReply
BitarProtocol::snoop(Cache &, const BusMsg &msg, Frame *f)
{
    SnoopReply r;
    if (!f || !isValid(f->state))
        return r;

    switch (msg.req) {
      case BusReq::ReadShared:
      case BusReq::ReadExclusive:
      case BusReq::ReadLock:
      case BusReq::WriteNoFetch:
        if (isLocked(f->state)) {
            // The block is locked here: answer busy and record the
            // waiter (Figure 7).
            r.hasCopy = true;
            r.locked = true;
            f->state |= BitWaiter;
            return r;
        }
        r.hasCopy = true;
        if (msg.req == BusReq::ReadShared) {
            if (isSource(f->state)) {
                // Source provides the block and its clean/dirty status;
                // source status moves to the fetcher (Figure 4; no
                // flush: Feature 7 'NF,S').
                r.source = true;
                r.supplyData = !msg.hasData;
                r.dirty = isDirty(f->state);
                // Any write privilege is lost: another reader exists.
                f->state = Rd;
            } else if (canWrite(f->state)) {
                f->state = Rd;
            }
        } else {
            // Write-privilege request: supply if source, then
            // invalidate (WriteNoFetch kills the data by contract).
            if (isSource(f->state) && msg.req != BusReq::WriteNoFetch) {
                r.source = true;
                r.supplyData = !msg.hasData;
                r.dirty = isDirty(f->state);
            }
            f->state = Inv;
        }
        return r;

      case BusReq::Upgrade:
      case BusReq::IOInvalidate:
        r.hasCopy = true;
        f->state = Inv;
        return r;

      case BusReq::IOReadKeepSource:
        r.hasCopy = true;
        if (isSource(f->state)) {
            // Non-paging output: provide the latest version but keep
            // source status (Section E.2).
            r.source = true;
            r.supplyData = true;
            r.dirty = isDirty(f->state);
        }
        return r;

      case BusReq::UnlockBroadcast:
      case BusReq::WriteBack:
      case BusReq::WriteWord:
      case BusReq::UpdateWord:
        // Not part of this protocol's transaction set (UnlockBroadcast
        // is handled by busy-wait registers).
        return r;
    }
    return r;
}

bool
BitarProtocol::evictNeedsWriteback(Cache &, const Frame &f) const
{
    return isDirty(f.state);
}

void
BitarProtocol::onEvict(Cache &c, Frame &f)
{
    if (isLocked(f.state)) {
        // Purge of a locked block: write the lock (and waiter) tag to
        // memory; the flush itself rides the piggybacked write-back
        // (Section E.3).
        c.memory().setMemLock(f.blockAddr, true, c.nodeId());
        c.memory().setMemWaiter(f.blockAddr, hasWaiter(f.state));
        c.notePurgedLock(f.blockAddr, true);
    }
}

namespace
{
const bool registered = ProtocolRegistry::registerProtocol(
    "bitar", [] { return std::make_unique<BitarProtocol>(); });
} // anonymous namespace

} // namespace csync
