#include "core/busy_wait.hh"

#include "cache/cache.hh"

namespace csync
{

BusyWaitRegister::BusyWaitRegister(std::string name, EventQueue *eq,
                                   Cache *cache, NodeId id,
                                   Bus *bus)
    : SimObject(std::move(name), eq), cache_(cache), id_(id), bus_(bus)
{
}

void
BusyWaitRegister::arm(Addr block_addr)
{
    sim_assert(!armed_, "busy-wait register %s already armed",
               name().c_str());
    armed_ = true;
    blockAddr_ = block_addr;
}

void
BusyWaitRegister::disarm()
{
    armed_ = false;
    if (bus_->requestPending(this))
        bus_->cancel(this);
}

bool
BusyWaitRegister::busGrant(BusMsg &msg)
{
    if (!armed_) {
        // The lock evaporated (another winner took it); yield the slot.
        return false;
    }
    cache_->prepareLockFetch(msg);
    trace(TraceFlag::Lock, "lock fetch blk=%llx (priority grant)",
                   (unsigned long long)blockAddr_);
    return true;
}

SnoopReply
BusyWaitRegister::snoop(const BusMsg &msg)
{
    if (armed_ && msg.blockAddr == blockAddr_) {
        if (msg.req == BusReq::UnlockBroadcast) {
            // The lock was released: join the next arbitration with the
            // dedicated high-priority bit (Section E.4).
            trace(TraceFlag::Lock, "unlock seen blk=%llx; arbitrating",
                           (unsigned long long)blockAddr_);
            bus_->request(this,
                          cache_->config().busyWaitPriority
                              ? BusPriority::BusyWait
                              : BusPriority::Normal,
                          TrafficClass::Sync);
        } else if (msg.req == BusReq::ReadLock) {
            // Another waiter won: make no attempt to fetch the block
            // again; keep waiting for the next unlock (Figure 9).
            trace(TraceFlag::Lock, "lost arbitration blk=%llx; staying quiet",
                           (unsigned long long)blockAddr_);
            bus_->cancel(this);
        }
    }
    return SnoopReply{};
}

void
BusyWaitRegister::busComplete(const BusMsg &msg, const SnoopResult &res)
{
    if (res.locked) {
        // Raced with a re-lock; keep waiting for the next broadcast.
        cache_->lockFetchDenied();
        return;
    }
    armed_ = false;
    cache_->lockFetchCompleted(msg, res);
}

} // namespace csync
