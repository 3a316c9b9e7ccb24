#include "cache/cache.hh"

namespace csync
{

Cache::Cache(std::string name, EventQueue *eq, NodeId id, NodeId reg_id,
             const CacheConfig &config, std::unique_ptr<Protocol> protocol,
             Bus *bus, Checker *checker,
             stats::Group *stats_parent)
    : SimObject(std::move(name), eq),
      statsGroup(this->name(), stats_parent),
      accesses(&statsGroup, "accesses", "processor operations issued"),
      readOps(&statsGroup, "readOps", "Read operations"),
      writeOps(&statsGroup, "writeOps", "Write operations"),
      rmwOps(&statsGroup, "rmwOps", "atomic read-modify-write operations"),
      lockOps(&statsGroup, "lockOps", "LockRead operations"),
      unlockOps(&statsGroup, "unlockOps", "UnlockWrite operations"),
      writeNoFetchOps(&statsGroup, "writeNoFetchOps",
                      "WriteNoFetch operations"),
      hitsLocal(&statsGroup, "hitsLocal",
                "operations completed with no bus transaction"),
      missesBus(&statsGroup, "missesBus",
                "operations that needed the bus"),
      busTransactions(&statsGroup, "busTransactions",
                      "bus transactions issued by this cache"),
      invalidationsReceived(&statsGroup, "invalidationsReceived",
                            "blocks invalidated by snooped requests"),
      updatesReceived(&statsGroup, "updatesReceived",
                      "word updates applied by snooped writes"),
      blocksSupplied(&statsGroup, "blocksSupplied",
                     "cache-to-cache transfers supplied"),
      evictions(&statsGroup, "evictions", "valid frames displaced"),
      writebacks(&statsGroup, "writebacks",
                 "victim flushes (piggybacked or explicit)"),
      lockedPurges(&statsGroup, "lockedPurges",
                   "locked blocks purged to memory lock tags"),
      locksAcquired(&statsGroup, "locksAcquired", "locks acquired"),
      zeroTimeLocks(&statsGroup, "zeroTimeLocks",
                    "locks acquired with zero bus transactions"),
      zeroTimeUnlocks(&statsGroup, "zeroTimeUnlocks",
                      "unlocks with zero bus transactions"),
      unlockBroadcasts(&statsGroup, "unlockBroadcasts",
                       "unlock broadcasts sent (waiter present)"),
      busyWaitArms(&statsGroup, "busyWaitArms",
                   "busy-wait register armings"),
      busyWaitInterrupts(&statsGroup, "busyWaitInterrupts",
                         "locks acquired via the busy-wait register"),
      lockRetries(&statsGroup, "lockRetries",
                  "unsuccessful lock retries on the bus"),
      opLatency(&statsGroup, "opLatency", "operation latency (cycles)", 4,
                64),
      lockWaitTime(&statsGroup, "lockWaitTime",
                   "busy-wait duration (cycles)", 16, 64),
      hitRatio(&statsGroup, "hitRatio",
               "fraction of ops completed without the bus",
               [this] {
                   double a = accesses.value();
                   return a ? hitsLocal.value() / a : 0.0;
               }),
      busPerAccess(&statsGroup, "busPerAccess",
                   "bus transactions per processor op",
                   [this] {
                       double a = accesses.value();
                       return a ? busTransactions.value() / a : 0.0;
                   }),
      id_(id),
      config_(config),
      protocol_(std::move(protocol)),
      bus_(bus),
      checker_(checker),
      blocks_(config.geom),
      dir_(config.directory, &statsGroup),
      bwReg_(this->name() + ".bwreg", eq, this, reg_id, bus)
{
    sim_assert(bus_ != nullptr, "cache needs a bus");
    sim_assert(protocol_ != nullptr, "cache needs a protocol");
    sim_assert(config_.geom.blockWords == bus_->memory().blockWords(),
               "cache/memory block size mismatch");
}

void
Cache::setLockInterruptHandler(LockInterruptHandler handler)
{
    lockHandler_ = std::move(handler);
}

State
Cache::stateOf(Addr addr) const
{
    const Frame *f = blocks_.find(blocks_.blockAlign(addr));
    return f ? f->state : Inv;
}

Word
Cache::peekWord(Addr addr) const
{
    const Frame *f = blocks_.find(blocks_.blockAlign(addr));
    if (!f)
        return 0;
    return f->data[(addr - f->blockAddr) / bytesPerWord];
}

const Frame *
Cache::peekFrame(Addr addr) const
{
    return blocks_.find(blocks_.blockAlign(addr));
}

Frame &
Cache::installFrameForTest(Addr addr, State state,
                           const std::vector<Word> *data)
{
    Addr ba = blockAlign(addr);
    Frame *f = blocks_.find(ba);
    if (!f) {
        f = blocks_.victim(ba);
        f->state = Inv;
    }
    blocks_.install(*f, ba);
    f->state = state;
    if (data) {
        sim_assert(data->size() == blockWords(), "bad test frame payload");
        f->data = *data;
    } else {
        f->data.assign(blockWords(), 0);
    }
    f->unitDirty.clear();
    blocks_.touch(*f, curTick());
    return *f;
}

void
Cache::notePurgedLock(Addr block_addr, bool held)
{
    if (held)
        purgedLocks_.insert(block_addr);
    else
        purgedLocks_.erase(block_addr);
}

bool
Cache::holdsPurgedLock(Addr block_addr) const
{
    return purgedLocks_.count(block_addr) > 0;
}

void
Cache::checkpoint(Checkpoint &out) const
{
    sim_assert(phase_ == Phase::Idle && !curCb_,
               "checkpoint of %s with an op in flight", name().c_str());
    blocks_.checkpoint(out.blocks);
    bwReg_.checkpoint(out.bwReg);
    out.protocol.clear();
    protocol_->checkpoint(out.protocol);
    out.purgedLocks = purgedLocks_;
    out.curOp = curOp_;
    out.opIssued = opIssued_;
    out.firstDispatch = firstDispatch_;
    out.replays = replays_;
    out.checkerRecorded = checkerRecorded_;
    out.rmwOldValue = rmwOldValue_;
    out.rmwOldValid = rmwOldValid_;
    out.opLockFetched = opLockFetched_;
    out.decisionState = decisionState_;
    out.installTarget = installTarget_;
    out.lockInstallTarget = lockInstallTarget_;
    out.lockOpWaiting = lockOpWaiting_;
    out.pendingLockOp = pendingLockOp_;
    out.pendingLockCb = pendingLockCb_;
    out.lockWaitStart = lockWaitStart_;
    out.lockReplayPending = lockReplayPending_;
}

void
Cache::restore(const Checkpoint &cp)
{
    blocks_.restore(cp.blocks);
    bwReg_.restore(cp.bwReg);
    WordReader words(cp.protocol);
    protocol_->restore(words);
    sim_assert(words.done(), "protocol checkpoint of %s not fully read",
               name().c_str());
    purgedLocks_ = cp.purgedLocks;
    phase_ = Phase::Idle;
    curCb_ = nullptr;
    curOp_ = cp.curOp;
    opIssued_ = cp.opIssued;
    firstDispatch_ = cp.firstDispatch;
    replays_ = cp.replays;
    checkerRecorded_ = cp.checkerRecorded;
    rmwOldValue_ = cp.rmwOldValue;
    rmwOldValid_ = cp.rmwOldValid;
    opLockFetched_ = cp.opLockFetched;
    decisionState_ = cp.decisionState;
    installTarget_ = cp.installTarget;
    lockInstallTarget_ = cp.lockInstallTarget;
    lockOpWaiting_ = cp.lockOpWaiting;
    pendingLockOp_ = cp.pendingLockOp;
    pendingLockCb_ = cp.pendingLockCb;
    lockWaitStart_ = cp.lockWaitStart;
    lockReplayPending_ = cp.lockReplayPending;
}

void
Cache::access(const MemOp &op, AccessCallback cb)
{
    sim_assert(phase_ == Phase::Idle,
               "cache %s: access while op in progress", name().c_str());
    ++accesses;
    switch (op.type) {
      case OpType::Read: ++readOps; break;
      case OpType::Write: ++writeOps; break;
      case OpType::Rmw: ++rmwOps; break;
      case OpType::LockRead: ++lockOps; break;
      case OpType::UnlockWrite: ++unlockOps; break;
      case OpType::WriteNoFetch: ++writeNoFetchOps; break;
    }
    dir_.noteProcAccess();
    curOp_ = op;
    curCb_ = std::move(cb);
    opIssued_ = curTick();
    firstDispatch_ = true;
    replays_ = 0;
    checkerRecorded_ = false;
    rmwOldValid_ = false;
    opLockFetched_ = false;
    dispatch();
}

ProcAction
Cache::dispatchToProtocol(Frame *f)
{
    switch (curOp_.type) {
      case OpType::Read:
        return protocol_->procRead(*this, f, curOp_);
      case OpType::Write:
        if (f && canWrite(f->state) && !isDirty(f->state))
            dir_.noteWriteHitToClean();
        return protocol_->procWrite(*this, f, curOp_);
      case OpType::Rmw:
        if (f && canWrite(f->state) && !isDirty(f->state))
            dir_.noteWriteHitToClean();
        return protocol_->procRmw(*this, f, curOp_);
      case OpType::LockRead:
        return protocol_->procLockRead(*this, f, curOp_);
      case OpType::UnlockWrite:
        return protocol_->procUnlockWrite(*this, f, curOp_);
      case OpType::WriteNoFetch:
        if (f && canWrite(f->state) && !isDirty(f->state))
            dir_.noteWriteHitToClean();
        return protocol_->procWriteNoFetch(*this, f, curOp_);
    }
    panic("unreachable op type");
}

void
Cache::dispatch()
{
    sim_assert(++replays_ <= 50, "op replay loop on %s @%llx",
               opTypeName(curOp_.type), (unsigned long long)curOp_.addr);

    Addr ba = blockAlign(curOp_.addr);
    Frame *f = blocks_.find(ba);
    if (f)
        blocks_.touch(*f, curTick());
    decisionState_ = f ? f->state : Inv;

    ProcAction a = dispatchToProtocol(f);
    if (a.kind == ProcAction::Kind::Hit) {
        sim_assert(f != nullptr, "hit action with no frame (%s @%llx)",
                   opTypeName(curOp_.type),
                   (unsigned long long)curOp_.addr);
        if (firstDispatch_)
            ++hitsLocal;
        completeLocally(*f);
        return;
    }

    // Bus action.
    if (firstDispatch_) {
        ++missesBus;
        firstDispatch_ = false;
    }
    pendingAction_ = a;
    pendingMsg_ = BusMsg{};
    pendingMsg_.req = a.busReq;
    pendingMsg_.blockAddr = ba;
    pendingMsg_.wordAddr = wordAlign(curOp_.addr);
    pendingMsg_.wordData = curOp_.value;
    pendingMsg_.hasData = a.hasData;
    pendingMsg_.privateHint = curOp_.privateHint;
    // Lock traffic and tagged sync references belong to the
    // synchronization system (Section E.2, Figure 11).
    bool sync_op = curOp_.type == OpType::LockRead ||
                   curOp_.type == OpType::UnlockWrite ||
                   curOp_.type == OpType::Rmw || curOp_.sync;
    pendingMsg_.cls = sync_op ? TrafficClass::Sync : TrafficClass::Data;
    if (config_.geom.subBlockUnits())
        pendingMsg_.unitWords = config_.geom.transferWords;
    pendingMsg_.updateMemory = a.updateMemory;
    phase_ = Phase::MainReq;
    bus_->request(this, BusPriority::Normal, pendingMsg_.cls);
}

void
Cache::markUnitDirty(Frame &f, unsigned word_idx)
{
    const CacheGeometry &g = config_.geom;
    if (!g.subBlockUnits())
        return;
    if (f.unitDirty.size() != g.unitsPerBlock())
        f.unitDirty.assign(g.unitsPerBlock(), false);
    f.unitDirty[word_idx / g.transferWords] = true;
}

void
Cache::inheritUnitDirty(Frame &f, const SnoopResult &res)
{
    // Assigned in place: the frame's bit vector keeps its storage.
    if (isDirty(f.state) && !res.unitDirty.empty())
        f.unitDirty = res.unitDirty;
    else
        f.unitDirty.assign(config_.geom.unitsPerBlock(), false);
}

void
Cache::applyOp(Frame &f, AccessResult &r)
{
    Addr wa = wordAlign(curOp_.addr);
    unsigned idx = unsigned((wa - f.blockAddr) / bytesPerWord);
    sim_assert(idx < f.data.size(), "word index out of range");
    Tick now = curTick();

    switch (curOp_.type) {
      case OpType::Read:
        r.value = f.data[idx];
        if (checker_)
            checker_->onRead(id_, wa, r.value, now);
        break;

      case OpType::LockRead:
        r.value = f.data[idx];
        ++locksAcquired;
        if (checker_) {
            checker_->onRead(id_, wa, r.value, now);
            checker_->onLockAcquire(id_, f.blockAddr, now);
        }
        trace(TraceFlag::Lock, "lock acquired blk=%llx",
                       (unsigned long long)f.blockAddr);
        break;

      case OpType::Write:
        f.data[idx] = curOp_.value;
        markUnitDirty(f, idx);
        if (checker_ && !checkerRecorded_)
            checker_->onWrite(id_, wa, curOp_.value, now);
        break;

      case OpType::Rmw:
        if (rmwOldValid_) {
            // The RMW serialized at bus grant (word write-through /
            // broadcast); the old value was captured there.
            r.value = rmwOldValue_;
            rmwOldValid_ = false;
        } else {
            r.value = f.data[idx];
            if (checker_)
                checker_->onRead(id_, wa, r.value, now);
        }
        f.data[idx] = curOp_.value;
        markUnitDirty(f, idx);
        if (checker_ && !checkerRecorded_)
            checker_->onWrite(id_, wa, curOp_.value, now);
        break;

      case OpType::UnlockWrite:
        f.data[idx] = curOp_.value;
        markUnitDirty(f, idx);
        if (checker_) {
            if (!checkerRecorded_)
                checker_->onWrite(id_, wa, curOp_.value, now);
            checker_->onLockRelease(id_, f.blockAddr, now);
        }
        trace(TraceFlag::Lock, "lock released blk=%llx",
                       (unsigned long long)f.blockAddr);
        break;

      case OpType::WriteNoFetch:
        f.data[idx] = curOp_.value;
        // The whole block is claimed: every unit is (to be) written.
        if (config_.geom.subBlockUnits()) {
            f.unitDirty.assign(config_.geom.unitsPerBlock(), true);
        }
        if (checker_ && !checkerRecorded_)
            checker_->onWrite(id_, wa, curOp_.value, now);
        break;
    }
}

void
Cache::completeLocally(Frame &f)
{
    // Zero-time lock/unlock accounting (Section E.3): the op completed
    // with no bus transaction at all.
    if (firstDispatch_) {
        if (curOp_.type == OpType::LockRead)
            ++zeroTimeLocks;
        else if (curOp_.type == OpType::UnlockWrite)
            ++zeroTimeUnlocks;
    }
    AccessResult r;
    applyOp(f, r);
    finishOp(r);
}

void
Cache::finishOp(const AccessResult &r)
{
    phase_ = Phase::Idle;
    opLatency.sample(curTick() - opIssued_);
    AccessCallback cb = std::move(curCb_);
    curCb_ = nullptr;
    // Deliver after the hit latency (pure latency; effects are already
    // applied so a concurrent snoop cannot observe stale state).
    eventq()->scheduleIn(config_.hitLatency,
                         [cb = std::move(cb), r] { cb(r); });
    if (lockReplayPending_) {
        lockReplayPending_ = false;
        startLockReplay();
    }
}

Frame *
Cache::prepareInstall(BusMsg &msg)
{
    Frame *f = blocks_.find(msg.blockAddr);
    if (f)
        return f;
    Frame *v = blocks_.victim(msg.blockAddr);
    if (v->valid()) {
        ++evictions;
        if (isLocked(v->state)) {
            // Purge of a locked block: the lock tag moves to memory
            // (Section E.3, second concern).
            ++lockedPurges;
        }
        if (protocol_->evictNeedsWriteback(*this, *v)) {
            msg.wbValid = true;
            msg.wbAddr = v->blockAddr;
            msg.wbData = v->data;
            if (config_.geom.subBlockUnits() && !v->unitDirty.empty()) {
                msg.wbWordCount =
                    v->dirtyUnits() * config_.geom.transferWords;
            }
            ++writebacks;
        }
        protocol_->onEvict(*this, *v);
        trace(TraceFlag::Cache, "evict blk=%llx state=%s%s",
                       (unsigned long long)v->blockAddr,
                       stateName(v->state).c_str(),
                       msg.wbValid ? " (writeback)" : "");
        v->state = Inv;
    }
    return v;
}

bool
Cache::busGrant(BusMsg &msg)
{
    sim_assert(phase_ == Phase::MainReq,
               "bus grant to %s with no pending request", name().c_str());

    {
        // Stale-decision guard: the protocol chose this transaction from
        // the block's state at dispatch time.  If a snooped transaction
        // changed that state while we waited for the bus (an upgrade
        // whose copy was invalidated, a write-once whose premise died,
        // an update write that lost its sharers...), decline the grant
        // and re-decide from the current state.
        Frame *f = blocks_.find(pendingMsg_.blockAddr);
        State cur = f ? f->state : Inv;
        if (cur != decisionState_) {
            phase_ = Phase::Idle;
            trace(TraceFlag::Cache, "request for %llx raced with a snoop "
                           "(%s -> %s); re-deciding",
                           (unsigned long long)pendingMsg_.blockAddr,
                           stateName(decisionState_).c_str(),
                           stateName(cur).c_str());
            // Linear back-off breaks re-decide lockstep when several
            // caches hammer the same block (each re-decision would
            // otherwise have its premise killed by the next grant).
            Tick delay = Tick(replays_);
            if (delay == 0) {
                dispatch();
            } else {
                eventq()->scheduleIn(delay, [this] { dispatch(); });
            }
            return false;
        }
    }

    msg = pendingMsg_;
    ++busTransactions;

    bool needs_frame =
        (transfersBlock(msg.req) && !msg.hasData) ||
        msg.req == BusReq::WriteNoFetch;
    if (needs_frame)
        installTarget_ = prepareInstall(msg);
    else
        installTarget_ = blocks_.find(msg.blockAddr);

    // Word write-throughs and broadcasts serialize at grant time: the
    // snoopers' copies change now, so the checker must see the write now.
    // An RMW's read half serializes immediately before its write half.
    if (pendingAction_.completesOp &&
        (msg.req == BusReq::WriteWord || msg.req == BusReq::UpdateWord)) {
        if (curOp_.type == OpType::Rmw) {
            Frame *f = blocks_.find(msg.blockAddr);
            rmwOldValue_ = f ? f->data[(msg.wordAddr - f->blockAddr) /
                                       bytesPerWord]
                             : 0;
            rmwOldValid_ = true;
            if (checker_)
                checker_->onRead(id_, msg.wordAddr, rmwOldValue_,
                                 curTick());
        }
        if (checker_) {
            checker_->onWrite(id_, msg.wordAddr, msg.wordData, curTick());
            checkerRecorded_ = true;
        }
    }
    return true;
}

SnoopReply
Cache::snoop(const BusMsg &msg)
{
    dir_.noteBusSnoop();
    Frame *f = blocks_.find(msg.blockAddr);
    State before = f ? f->state : Inv;
    SnoopReply r = protocol_->snoop(*this, msg, f);
    State after = f ? f->state : Inv;
    // The payload of a supply or a flush-first write-back is always the
    // frame's block; protocols only decide whether it travels.
    if (f && (r.supplyData || r.flushedFirst))
        r.data = f->data;

    if (r.supplyData && config_.geom.subBlockUnits()) {
        // Section D.3: only the requested transfer unit plus every
        // dirty unit moves; per-unit dirty status travels with it.
        // (Protocols never touch unitDirty, so the frame's bits are
        // still the pre-snoop ones here.)
        const CacheGeometry &g = config_.geom;
        unsigned req_unit =
            unsigned((msg.wordAddr - msg.blockAddr) / bytesPerWord) /
            g.transferWords;
        r.unitDirty.assign(g.unitsPerBlock(), false);
        unsigned units = 0;
        for (unsigned u = 0; u < g.unitsPerBlock(); ++u) {
            if (f && u < f->unitDirty.size())
                r.unitDirty[u] = f->unitDirty[u];
            units += (r.unitDirty[u] || u == req_unit);
        }
        r.transferWordCount = units * g.transferWords;
        if (f && !isDirty(f->state)) {
            // Dirty responsibility moved (or the block was flushed):
            // our per-unit dirt is gone.
            f->unitDirty.assign(g.unitsPerBlock(), false);
        }
    }

    if (isValid(before) && !isValid(after))
        ++invalidationsReceived;
    if (msg.req == BusReq::UpdateWord && f && isValid(after))
        ++updatesReceived;
    if (r.supplyData)
        ++blocksSupplied;
    if (hasWaiter(after) && !hasWaiter(before))
        dir_.noteWaiterStatusWrite();
    return r;
}

void
Cache::busComplete(const BusMsg &msg, const SnoopResult &res)
{
    sim_assert(phase_ == Phase::MainReq, "unexpected bus completion");

    if (res.locked) {
        // The block is locked elsewhere (Figure 7).
        if (config_.useBusyWaitRegister) {
            phase_ = Phase::Idle;
            armBusyWait(msg.blockAddr);
        } else {
            // Ablation: no busy-wait register — retry on the bus.
            ++lockRetries;
            bus_->request(this, BusPriority::Normal, msg.cls);
        }
        return;
    }

    Frame *f = installTarget_;
    installTarget_ = nullptr;

    if (transfersBlock(msg.req) && !msg.hasData) {
        sim_assert(f != nullptr, "fetch with no install frame");
        sim_assert(res.data.size() == blockWords(), "bad fetch payload");
        blocks_.install(*f, msg.blockAddr);
        f->data = res.data;
        blocks_.touch(*f, curTick());
    } else if (msg.req == BusReq::WriteNoFetch) {
        sim_assert(f != nullptr, "write-no-fetch with no install frame");
        blocks_.install(*f, msg.blockAddr);
        f->data.assign(blockWords(), 0);
        blocks_.touch(*f, curTick());
        // The program contract (Feature 9) is that the whole block will
        // be written; the claim makes this buffer the latest version.
        if (checker_) {
            for (unsigned w = 0; w < blockWords(); ++w) {
                Addr wa = msg.blockAddr + Addr(w) * bytesPerWord;
                if (wa != wordAlign(curOp_.addr))
                    checker_->onWrite(id_, wa, 0, curTick());
            }
        }
    } else {
        f = blocks_.find(msg.blockAddr);
    }

    if (msg.req == BusReq::ReadLock)
        opLockFetched_ = true;
    if (f) {
        protocol_->finishBus(*this, msg, res, *f);
        if (config_.geom.subBlockUnits() &&
            transfersBlock(msg.req) && !msg.hasData) {
            inheritUnitDirty(*f, res);
        }
        trace(TraceFlag::Protocol, "%s done blk=%llx -> %s", busReqName(msg.req),
                       (unsigned long long)msg.blockAddr,
                       stateName(f->state).c_str());
    }

    if (pendingAction_.completesOp) {
        AccessResult r;
        if (f) {
            applyOp(*f, r);
        } else if (checker_ && !checkerRecorded_ &&
                   (curOp_.type == OpType::Write ||
                    curOp_.type == OpType::Rmw)) {
            // No-allocate write-through: memory got the word on the bus.
            checker_->onWrite(id_, wordAlign(curOp_.addr), curOp_.value,
                              curTick());
        }
        finishOp(r);
    } else {
        phase_ = Phase::Idle;
        dispatch();
    }
}

void
Cache::armBusyWait(Addr block_addr)
{
    ++busyWaitArms;
    lockWaitStart_ = curTick();
    bwReg_.arm(block_addr);
    pendingLockOp_ = curOp_;
    lockOpWaiting_ = true;
    trace(TraceFlag::Lock, "busy-wait armed blk=%llx",
                   (unsigned long long)block_addr);
    if (lockHandler_) {
        // Work while waiting: tell the processor the lock is pending and
        // let it continue (Section E.4).
        AccessResult r;
        r.waiting = true;
        AccessCallback cb = std::move(curCb_);
        curCb_ = nullptr;
        pendingLockCb_ = nullptr;
        eventq()->scheduleIn(config_.hitLatency,
                             [cb = std::move(cb), r] { cb(r); });
    } else {
        // Blocking busy wait: hold the callback until the interrupt.
        pendingLockCb_ = std::move(curCb_);
        curCb_ = nullptr;
    }
}

void
Cache::prepareLockFetch(BusMsg &msg)
{
    // The fetch matches the waiting operation: only lock-style ops
    // re-lock the block; a plain access denied by a lock fetches with
    // ordinary privilege once the lock is released.
    switch (pendingLockOp_.type) {
      case OpType::LockRead:
      case OpType::Rmw:
        msg.req = BusReq::ReadLock;
        break;
      case OpType::Read:
        msg.req = BusReq::ReadShared;
        break;
      default:
        msg.req = BusReq::ReadExclusive;
        break;
    }
    msg.blockAddr = bwReg_.blockAddr();
    msg.wordAddr = wordAlign(pendingLockOp_.addr);
    // The busy-waited replay is part of the lock dance: sync traffic.
    msg.cls = TrafficClass::Sync;
    if (config_.geom.subBlockUnits())
        msg.unitWords = config_.geom.transferWords;
    lockInstallTarget_ = prepareInstall(msg);
}

void
Cache::lockFetchCompleted(const BusMsg &msg, const SnoopResult &res)
{
    Frame *f = lockInstallTarget_;
    lockInstallTarget_ = nullptr;
    sim_assert(f != nullptr, "lock fetch with no install frame");
    sim_assert(res.data.size() == blockWords(), "bad lock fetch payload");
    blocks_.install(*f, msg.blockAddr);
    f->data = res.data;
    blocks_.touch(*f, curTick());
    if (msg.req == BusReq::ReadLock)
        opLockFetched_ = true;
    protocol_->finishBus(*this, msg, res, *f);
    if (config_.geom.subBlockUnits())
        inheritUnitDirty(*f, res);
    ++busyWaitInterrupts;
    lockWaitTime.sample(curTick() - lockWaitStart_);
    trace(TraceFlag::Lock, "busy-wait won blk=%llx -> %s",
                   (unsigned long long)msg.blockAddr,
                   stateName(f->state).c_str());

    if (phase_ != Phase::Idle) {
        // The processor has another operation in flight (work while
        // waiting); replay the lock op when it finishes.
        lockReplayPending_ = true;
        return;
    }
    startLockReplay();
}

void
Cache::lockFetchDenied()
{
    // Still locked (e.g. the unlock raced with a purge): keep waiting.
    ++lockRetries;
}

void
Cache::startLockReplay()
{
    sim_assert(lockOpWaiting_, "lock replay without waiting op");
    lockOpWaiting_ = false;
    curOp_ = pendingLockOp_;
    if (lockHandler_) {
        MemOp op = pendingLockOp_;
        LockInterruptHandler h = lockHandler_;
        curCb_ = [op, h](const AccessResult &r) { h(op, r); };
    } else {
        curCb_ = std::move(pendingLockCb_);
        pendingLockCb_ = nullptr;
    }
    opIssued_ = curTick();
    firstDispatch_ = false;
    replays_ = 0;
    checkerRecorded_ = false;
    dispatch();
}

} // namespace csync
