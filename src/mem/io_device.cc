#include "mem/io_device.hh"

namespace csync
{

IODevice::IODevice(std::string name, EventQueue *eq, NodeId id,
                   Bus *bus, Checker *checker,
                   stats::Group *stats_parent)
    : SimObject(std::move(name), eq),
      statsGroup(this->name(), stats_parent),
      inputs(&statsGroup, "inputs", "I/O input operations"),
      pageOuts(&statsGroup, "pageOuts", "paging-out operations"),
      outputs(&statsGroup, "outputs", "non-paging output operations"),
      lockedRetries(&statsGroup, "lockedRetries",
                    "retries against locked blocks"),
      id_(id),
      bus_(bus),
      checker_(checker)
{
}

void
IODevice::input(Addr block_addr, std::vector<Word> data, IOCallback cb)
{
    ++inputs;
    post(IOOp{BusReq::IOInvalidate, block_addr, std::move(data),
              std::move(cb)});
}

void
IODevice::pageOut(Addr block_addr, IOCallback cb)
{
    ++pageOuts;
    post(IOOp{BusReq::ReadExclusive, block_addr, {}, std::move(cb)});
}

void
IODevice::output(Addr block_addr, IOCallback cb)
{
    ++outputs;
    post(IOOp{BusReq::IOReadKeepSource, block_addr, {}, std::move(cb)});
}

void
IODevice::post(IOOp op)
{
    pending_.push_back(std::move(op));
    if (!inFlight_)
        bus_->request(this, BusPriority::Normal, TrafficClass::Sync);
}

bool
IODevice::busGrant(BusMsg &msg)
{
    sim_assert(!pending_.empty(), "I/O grant with nothing pending");
    const IOOp &op = pending_.front();
    msg.req = op.req;
    // I/O broadcasts ride the synchronization system (Section E.2).
    msg.cls = TrafficClass::Sync;
    msg.blockAddr = op.blockAddr;
    inFlight_ = true;

    if (op.req == BusReq::IOInvalidate) {
        // The DMA write lands in memory concurrently with the
        // invalidation broadcast; it serializes here.
        Memory &mem = bus_->memory();
        sim_assert(op.data.size() == mem.blockWords(),
                   "I/O input payload of %zu words", op.data.size());
        mem.writeBlock(op.blockAddr, op.data);
        if (checker_) {
            for (unsigned w = 0; w < mem.blockWords(); ++w) {
                checker_->onWrite(id_,
                                  op.blockAddr + Addr(w) * bytesPerWord,
                                  op.data[w], curTick());
            }
        }
    }
    return true;
}

SnoopReply
IODevice::snoop(const BusMsg &)
{
    return SnoopReply{};
}

void
IODevice::busComplete(const BusMsg &, const SnoopResult &res)
{
    sim_assert(!pending_.empty(), "I/O completion with nothing pending");
    inFlight_ = false;

    if (res.locked) {
        // The target block is locked in a cache (Section E.3): the I/O
        // processor has no busy-wait register, so it retries after a
        // back-off (a paging operation can afford to wait).
        ++lockedRetries;
        eventq()->scheduleIn(8, [this] {
            if (!inFlight_ && !pending_.empty())
                bus_->request(this, BusPriority::Normal, TrafficClass::Sync);
        });
        return;
    }

    IOOp op = std::move(pending_.front());
    pending_.pop_front();

    if (op.cb)
        op.cb(res.data);
    if (!pending_.empty())
        bus_->request(this, BusPriority::Normal, TrafficClass::Sync);
}

} // namespace csync
