#include "mem/bus.hh"

#include <algorithm>

#include "mem/snoop_gate.hh"

namespace csync
{

Bus::Bus(std::string name, EventQueue *eq, Memory *memory,
         const BusTiming &timing, stats::Group *stats_parent,
         unsigned carries, bool class_stats, const std::string &arbitration)
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
    if (class_stats) {
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
Bus::scheduleArbitration()
{
    if (arbScheduled_)
        return;
    arbScheduled_ = true;
    eventq()->scheduleIn(0, [this] { arbitrate(); }, EventPri::Arbitrate);
}

void
Bus::arbitrate()
{
    arbScheduled_ = false;
    if (busy_ || queue_.empty())
        return;

    if (Tick stall = preArbitrationStall()) {
        // Injected fault: the bus is held with no transaction, then
        // arbitration reruns.
        busy_ = true;
        busyCycles += double(stall);
        eventq()->scheduleIn(stall, [this] {
            busy_ = false;
            if (!queue_.empty())
                scheduleArbitration();
        });
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

    if (vetoGrant(winner.client, winner.pri, winner.cls)) {
        // Injected NAK before the winner could broadcast: the refused
        // handshake still consumes bus cycles, and the hook re-posts the
        // request after its backoff.
        busy_ = true;
        Tick dur = timing_.arbCycles + timing_.signalCycles;
        busyCycles += double(dur);
        eventq()->scheduleIn(dur, [this] {
            busy_ = false;
            if (!queue_.empty())
                scheduleArbitration();
        });
        return;
    }

    grantMsg_.reset();
    if (!winner.client->busGrant(grantMsg_)) {
        // Winner declined (e.g. its awaited lock is already gone); give
        // the slot to the next contender immediately.
        onTransactionComplete(winner.client);
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
        if (!carriesClass(msg.cls))
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
    // and broadcast to everyone, exactly as before.
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
                dur += supplyExtraDelay(msg, res);
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
        onTransactionComplete(requester);
        requester->busComplete(lastMsg_, res_);
        if (!queue_.empty())
            scheduleArbitration();
    });
}

} // namespace csync
