#include "proc/processor.hh"

namespace csync
{

Processor::Processor(std::string name, EventQueue *eq, NodeId id,
                     Cache *cache, std::unique_ptr<Workload> workload,
                     stats::Group *stats_parent)
    : Processor(std::move(name), eq, id, std::vector<Cache *>{cache},
                nullptr, std::move(workload), stats_parent)
{
}

Processor::Processor(std::string name, EventQueue *eq, NodeId id,
                     std::vector<Cache *> caches, const AddressMap *map,
                     std::unique_ptr<Workload> workload,
                     stats::Group *stats_parent)
    : SimObject(std::move(name), eq),
      statsGroup(this->name(), stats_parent),
      opsCompleted(&statsGroup, "opsCompleted", "memory ops completed"),
      memStallCycles(&statsGroup, "memStallCycles",
                     "cycles waiting on the memory system"),
      thinkCycles(&statsGroup, "thinkCycles", "cycles of local compute"),
      readySectionOps(&statsGroup, "readySectionOps",
                      "ops executed while busy-waiting for a lock"),
      id_(id),
      caches_(std::move(caches)),
      map_(map),
      workload_(std::move(workload))
{
    sim_assert(!caches_.empty(), "processor needs a cache");
    for (Cache *c : caches_)
        sim_assert(c != nullptr, "processor needs a cache");
    sim_assert(caches_.size() == 1 || map_ != nullptr,
               "multi-port processor needs an address map");
    sim_assert(workload_ != nullptr, "processor needs a workload");
    workload_->setWakeHook([this] { wake(); });
}

Cache &
Processor::portFor(Addr addr)
{
    if (caches_.size() == 1)
        return *caches_.front();
    std::size_t k = map_->switchFor(addr);
    sim_assert(k < caches_.size(), "address map names a missing port");
    return *caches_[k];
}

void
Processor::start()
{
    sim_assert(!started_, "processor started twice");
    started_ = true;
    scheduleNext();
}

void
Processor::enableWorkWhileWaiting()
{
    workWhileWaiting_ = true;
    // A lock can live behind any port; every port reports interrupts
    // here (at most one lock request is outstanding at a time).
    for (Cache *c : caches_) {
        c->setLockInterruptHandler(
            [this](const MemOp &op, const AccessResult &r) {
                onLockInterrupt(op, r);
            });
    }
}

void
Processor::wake()
{
    if (wakePending_)
        return;
    wakePending_ = true;
    eventq()->scheduleIn(0, [this] {
        wakePending_ = false;
        scheduleNext();
    });
}

void
Processor::scheduleNext()
{
    if (finished_ || opInFlight_ || issuePending_)
        return;

    MemOp op;
    Tick think = 0;
    switch (workload_->next(op, think)) {
      case NextStatus::Finished:
        finished_ = true;
        trace(TraceFlag::Processor, "workload finished");
        return;

      case NextStatus::Stalled:
        // Quiet until the workload's wake hook fires (a cross-thread
        // dependency or barrier elsewhere must make progress first).
        trace(TraceFlag::Processor, "workload stalled");
        return;

      case NextStatus::WaitForLock:
        // Quiet until the lock interrupt (Figure 9): the processor may
        // do whatever it likes; this workload has nothing ready.
        sim_assert(waitingForLock_, "WaitForLock with no lock pending");
        return;

      case NextStatus::Op:
        thinkCycles += double(think);
        issuePending_ = true;
        if (think == 0) {
            issue(op);
        } else {
            eventq()->scheduleIn(think, [this, op] { issue(op); });
        }
        return;
    }
}

void
Processor::issue(const MemOp &op)
{
    sim_assert(!opInFlight_, "issue while op in flight");
    sim_assert(homeDomain_ < 0 ||
                   map_->switchFor(op.addr) == std::size_t(homeDomain_),
               "%s issued %llx outside its home domain %d",
               name().c_str(), (unsigned long long)op.addr, homeDomain_);
    Cache &port = portFor(op.addr);
    if (!port.idle()) {
        // The cache is finishing a busy-waited lock replay; retry.
        eventq()->scheduleIn(1, [this, op] { issue(op); });
        return;
    }
    issuePending_ = false;
    opInFlight_ = true;
    issueTick_ = curTick();
    if (waitingForLock_)
        ++readySectionOps;
    curOp_ = op;
    port.access(curOp_,
                [this](const AccessResult &r) { onResult(r); });
}

void
Processor::onResult(const AccessResult &r)
{
    opInFlight_ = false;
    memStallCycles += double(curTick() - issueTick_);
    if (r.waiting) {
        // The lock is pending in the busy-wait register; the workload
        // may execute its ready section meanwhile.
        sim_assert(workWhileWaiting_, "waiting result without handler");
        waitingForLock_ = true;
    } else {
        ++opsCompleted;
    }
    workload_->onResult(curOp_, r);
    scheduleNext();
}

void
Processor::onLockInterrupt(const MemOp &op, const AccessResult &r)
{
    sim_assert(waitingForLock_, "lock interrupt while not waiting");
    waitingForLock_ = false;
    ++opsCompleted;
    workload_->onLockAcquired(op, r);
    scheduleNext();
}

} // namespace csync
