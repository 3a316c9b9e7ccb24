#include "mem/bus.hh"

#include <algorithm>

#include "cache/shared_cache.hh"

namespace csync
{

Bus::Bus(std::string name, EventQueue *eq, Memory *memory,
         const BusTiming &timing, stats::Group *stats_parent,
         unsigned carries, bool multi_switch,
         const std::string &arbitration, const FaultPlan *faults)
    : SimObject(std::move(name), eq),
      statsGroup(this->name(), stats_parent),
      transactions(&statsGroup, "transactions", "bus transactions granted"),
      busyCycles(&statsGroup, "busyCycles", "cycles the bus was occupied"),
      dataTransferCycles(&statsGroup, "dataTransferCycles",
                         "cycles spent moving data"),
      memSupplies(&statsGroup, "memSupplies",
                  "block fetches serviced by main memory"),
      cacheSupplies(&statsGroup, "cacheSupplies",
                    "block fetches serviced cache-to-cache"),
      lockedResponses(&statsGroup, "lockedResponses",
                      "requests answered 'locked' (busy) "),
      retries(&statsGroup, "retries",
              "flush-then-refetch retries (Synapse-style)"),
      highPriorityGrants(&statsGroup, "highPriorityGrants",
                         "grants won via the busy-wait priority bit"),
      sourceArbitrations(&statsGroup, "sourceArbitrations",
                         "multi-source arbitrations (Feature 8 ARB)"),
      memory_(memory),
      timing_(timing),
      carries_(carries),
      arb_(ArbitrationRegistry::make(arbitration))
{
    sim_assert(memory_ != nullptr, "bus needs a memory");
    for (unsigned i = 0; i < kNumBusReqs; ++i) {
        perType_.push_back(std::make_unique<stats::Scalar>(
            &statsGroup, std::string("req.") + busReqName(BusReq(i)),
            "transactions of this type"));
    }
    if (multi_switch) {
        for (unsigned i = 0; i < kNumTrafficClasses; ++i) {
            perClass_.push_back(std::make_unique<stats::Scalar>(
                &statsGroup,
                std::string("traffic.") + trafficClassName(TrafficClass(i)),
                "transactions of this traffic class"));
        }
        misrouted_ = std::make_unique<stats::Scalar>(
            &statsGroup, "traffic.misrouted",
            "transactions of a class this switch should not carry");
    }
    if (faults) {
        faults_ = std::make_unique<FaultInjector>(
            *faults, multi_switch ? this->name() + "." : "", stats_parent);
    }
}

double
Bus::classCount(TrafficClass cls) const
{
    return perClass_.empty() ? 0.0 : perClass_[unsigned(cls)]->value();
}

double
Bus::misroutedCount() const
{
    return misrouted_ ? misrouted_->value() : 0.0;
}

double
Bus::typeCount(BusReq req) const
{
    return perType_[unsigned(req)]->value();
}

void
Bus::addClient(BusClient *client)
{
    clients_.push_back(client);
}

void
Bus::request(BusClient *client, BusPriority pri, TrafficClass cls)
{
    for (auto &p : queue_) {
        if (p.client == client) {
            p.pri = std::max(p.pri, pri);
            if (cls == TrafficClass::Sync)
                p.cls = cls;
            return;
        }
    }
    queue_.push_back(Pending{client, pri, cls, curTick()});
    if (!busy_)
        scheduleArbitration();
}

void
Bus::cancel(BusClient *client)
{
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [client](const Pending &p) {
                                    return p.client == client;
                                }),
                 queue_.end());
}

bool
Bus::requestPending(const BusClient *client) const
{
    for (const auto &p : queue_)
        if (p.client == client)
            return true;
    return false;
}

void
Bus::checkpoint(Checkpoint &out) const
{
    sim_assert(queue_.empty() && !busy_ && !arbScheduled_,
               "checkpoint of %s with bus traffic pending", name().c_str());
    sim_assert(!faults_, "checkpoint of faulted bus %s", name().c_str());
    out.arbitration.clear();
    arb_->checkpoint(out.arbitration);
}

void
Bus::restore(const Checkpoint &cp)
{
    queue_.clear();
    busy_ = false;
    arbScheduled_ = false;
    WordReader words(cp.arbitration);
    arb_->restore(words);
    sim_assert(words.done(), "arbitration checkpoint of %s not fully read",
               name().c_str());
}

void
Bus::scheduleArbitration()
{
    if (arbScheduled_)
        return;
    arbScheduled_ = true;
    eventq()->scheduleIn(0, [this] { arbitrate(); }, EventPri::Arbitrate);
}

void
Bus::holdIdle(Tick dur)
{
    busy_ = true;
    busyCycles += double(dur);
    eventq()->scheduleIn(dur, [this] {
        busy_ = false;
        if (!queue_.empty())
            scheduleArbitration();
    });
}

void
Bus::arbitrate()
{
    arbScheduled_ = false;
    if (busy_ || queue_.empty())
        return;

    if (Tick stall = faults_ ? faults_->arbitrationStall() : 0) {
        // Injected fault: the bus is held with no transaction, then
        // arbitration reruns.
        trace(TraceFlag::Bus, "fault: stall bus %llu ticks",
              (unsigned long long)stall);
        holdIdle(stall);
        return;
    }

    // The busy-wait priority bit beats everything (Section E.4): only the
    // best posted priority class is shown to the service discipline, so
    // busy-wait supremacy holds for every policy.  Within that class the
    // policy picks the winner (round-robin by default).
    BusPriority best_pri = BusPriority::Normal;
    for (const auto &p : queue_)
        best_pri = std::max(best_pri, p.pri);

    cands_.clear();
    candIdx_.clear();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i].pri != best_pri)
            continue;
        cands_.push_back(ArbRequest{queue_[i].client->nodeId(),
                                    queue_[i].pri, queue_[i].cls,
                                    queue_[i].posted});
        candIdx_.push_back(i);
    }
    std::size_t k = arb_->pick(cands_, unsigned(clients_.size()));
    sim_assert(k < cands_.size(), "arbitration picked out of range");
    std::size_t best_idx = candIdx_[k];

    Pending winner = queue_[best_idx];
    queue_.erase(queue_.begin() + best_idx);

    auto refusal = faults_ ? faults_->refuseGrant(winner.client, winner.pri)
                           : std::nullopt;
    if (refusal) {
        // Injected NAK before the winner could broadcast: the refused
        // handshake still consumes bus cycles, and the request is
        // re-posted after its backoff.  The client may have since
        // withdrawn interest (a busy-wait register that snooped a
        // competing ReadLock); it then simply declines the re-grant.
        trace(TraceFlag::Bus, "fault: %s node %d, retry in %llu",
              faultKindName(refusal->kind), winner.client->nodeId(),
              (unsigned long long)refusal->backoff);
        eventq()->scheduleIn(refusal->backoff, [this, winner] {
            request(winner.client, winner.pri, winner.cls);
        });
        holdIdle(timing_.arbCycles + timing_.signalCycles);
        return;
    }

    grantMsg_.reset();
    if (!winner.client->busGrant(grantMsg_)) {
        // Winner declined (e.g. its awaited lock is already gone); give
        // the slot to the next contender immediately.
        if (faults_)
            faults_->turnEnded(winner.client);
        if (!queue_.empty())
            scheduleArbitration();
        return;
    }
    grantMsg_.requester = winner.client->nodeId();
    arb_->onGrant(winner.client->nodeId(), winner.cls);
    if (winner.pri == BusPriority::BusyWait)
        ++highPriorityGrants;

    // Park the accepted message: it stays the in-flight transaction
    // until completion and lastMsg() until the next broadcast.
    std::swap(grantMsg_, lastMsg_);
    hasLastMsg_ = true;
    lastMsgTick_ = curTick();
    trace(TraceFlag::Bus, "grant node %d: %s blk=%llx", lastMsg_.requester,
                   busReqName(lastMsg_.req),
                   (unsigned long long)lastMsg_.blockAddr);
    execute(winner.client);
}

void
Bus::execute(BusClient *requester)
{
    BusMsg &msg = lastMsg_;
    busy_ = true;
    ++transactions;
    ++*perType_[unsigned(msg.req)];
    if (!perClass_.empty()) {
        ++*perClass_[unsigned(msg.cls)];
        if (!(carries_ & trafficClassBit(msg.cls)))
            ++*misrouted_;
    }

    SnoopResult &res = res_;
    res.reset();
    int suppliers = 0;
    bool flush_with_transfer = false;
    std::vector<Word> supplied;
    bool supplier_dirty = false;
    unsigned supplier_words = 0;

    // On a hierarchical topology the cluster-boundary gate decides
    // which clients must see this broadcast and charges the root-bus
    // traversal when it leaves the cluster; flat buses have no gate
    // and broadcast to everyone.
    Tick gate_extra = gate_ ? gate_->beginTransaction(msg) : 0;

    for (auto *c : clients_) {
        if (c == requester)
            continue;
        if (gate_ && !gate_->shouldSnoop(c, msg))
            continue;
        SnoopReply r = c->snoop(msg);
        if (r.hasCopy) {
            res.hit = true;
            ++res.copies;
        }
        if (r.source)
            res.sourceExisted = true;
        if (r.locked)
            res.locked = true;
        if (r.flushedFirst) {
            memory_->writeBlock(msg.blockAddr, r.data);
            res.retried = true;
            ++retries;
        }
        if (r.supplyData) {
            ++suppliers;
            if (res.supplier == invalidNode) {
                res.supplier = c->nodeId();
                supplied = std::move(r.data);
                supplier_dirty = r.dirty;
                flush_with_transfer = r.flushToMemory;
                supplier_words = r.transferWordCount;
                res.unitDirty = std::move(r.unitDirty);
            }
        }
    }
    res.sourceDirty = supplier_dirty;

    Tick dur = timing_.arbCycles + gate_extra;
    const unsigned bw = memory_->blockWords();

    // Piggybacked victim write-back: applied unconditionally (the
    // requester already invalidated the victim frame at grant time).
    if (msg.wbValid) {
        sim_assert(msg.wbData.size() == bw, "piggyback wb of %zu words",
                   msg.wbData.size());
        memory_->writeBlock(msg.wbAddr, msg.wbData);
        unsigned words = msg.wbWordCount ? msg.wbWordCount : bw;
        dur += timing_.addrCycles + timing_.dataCycles(words);
        dataTransferCycles += double(timing_.dataCycles(words));
    }

    // Memory lock tags: a fetch of a block whose lock was purged to
    // memory is refused unless the requester is the lock holder.
    if (transfersBlock(msg.req) && memory_->memLocked(msg.blockAddr) &&
        memory_->memLockHolder(msg.blockAddr) != msg.requester) {
        res.locked = true;
        memory_->setMemWaiter(msg.blockAddr, true);
    }

    if (res.locked && transfersBlock(msg.req)) {
        // Answered 'busy': no data moves (Figure 7).
        dur += timing_.addrCycles + timing_.signalCycles;
        ++lockedResponses;
    } else {
        switch (msg.req) {
          case BusReq::ReadShared:
          case BusReq::ReadExclusive:
          case BusReq::ReadLock:
          case BusReq::IOReadKeepSource:
            dur += timing_.addrCycles;
            if (msg.hasData) {
                // Privilege-only request: the requester already holds
                // valid data (Figure 5); one-cycle invalidation.
                dur += timing_.signalCycles;
                break;
            }
            if (res.supplier != invalidNode) {
                // Cache-to-cache transfer (Figure 4).  With sub-block
                // transfer units only the requested unit plus the
                // dirty units move (Section D.3).
                sim_assert(supplied.size() == bw,
                           "supplier gave %zu of %u words",
                           supplied.size(), bw);
                if (suppliers > 1) {
                    dur += timing_.sourceArbCycles;
                    ++sourceArbitrations;
                }
                unsigned words = supplier_words ? supplier_words : bw;
                dur += timing_.dataCycles(words);
                dataTransferCycles += double(timing_.dataCycles(words));
                ++cacheSupplies;
                if (Tick delay = faults_ ? faults_->supplyDelay() : 0) {
                    trace(TraceFlag::Bus,
                          "fault: delay supply from node %d by %llu ticks",
                          res.supplier, (unsigned long long)delay);
                    dur += delay;
                }
                if (flush_with_transfer) {
                    memory_->writeBlock(msg.blockAddr, supplied);
                    if (!timing_.concurrentFlush)
                        dur += timing_.memLatency;
                }
                res.data = std::move(supplied);
            } else {
                // Main memory supplies (Figures 2, 3).
                if (res.retried) {
                    // Dirty snooper flushed first (Synapse): pay for the
                    // flush, then the fetch.
                    dur += timing_.addrCycles + timing_.dataCycles(bw);
                }
                unsigned words = msg.unitWords ? msg.unitWords : bw;
                dur += timing_.memLatency + timing_.dataCycles(words);
                dataTransferCycles += double(timing_.dataCycles(words));
                ++memSupplies;
                memory_->readBlock(msg.blockAddr, &res.data);
            }
            break;

          case BusReq::Upgrade:
            if (timing_.invalidateDuringFetch) {
                // One-cycle explicit invalidate signal (Feature 4).
                dur += timing_.signalCycles;
            } else {
                // No invalidate signal on this bus: gaining write
                // privilege costs a word write-through to memory (the
                // Multibus constraint behind Goodman's write-once).
                dur += timing_.wordWriteCycles;
                memory_->writeWord(msg.wordAddr, msg.wordData);
            }
            break;

          case BusReq::IOInvalidate:
          case BusReq::WriteNoFetch:
            dur += timing_.signalCycles;
            break;

          case BusReq::UnlockBroadcast:
            dur += timing_.signalCycles;
            // Clears any memory lock tag the requester held for a purged
            // locked block (Section E.3).
            if (memory_->memLocked(msg.blockAddr) &&
                memory_->memLockHolder(msg.blockAddr) == msg.requester) {
                memory_->setMemLock(msg.blockAddr, false, invalidNode);
            }
            break;

          case BusReq::WriteWord:
            dur += timing_.wordWriteCycles;
            memory_->writeWord(msg.wordAddr, msg.wordData);
            break;

          case BusReq::UpdateWord:
            dur += timing_.wordWriteCycles;
            if (msg.updateMemory)
                memory_->writeWord(msg.wordAddr, msg.wordData);
            break;

          case BusReq::WriteBack:
            sim_assert(msg.blockData.size() == bw,
                       "writeback of %zu of %u words", msg.blockData.size(),
                       bw);
            dur += timing_.addrCycles + timing_.dataCycles(bw);
            dataTransferCycles += double(timing_.dataCycles(bw));
            memory_->writeBlock(msg.blockAddr, msg.blockData);
            break;
        }
    }

    busyCycles += double(dur);

    // The parked message and result stay untouched until the next grant,
    // which cannot happen before busy_ clears here.
    eventq()->scheduleIn(dur, [this, requester] {
        busy_ = false;
        if (faults_)
            faults_->turnEnded(requester);
        requester->busComplete(lastMsg_, res_);
        if (!queue_.empty())
            scheduleArbitration();
    });
}

} // namespace csync
