#include "coherence/protocol.hh"

#include <algorithm>

#include "cache/cache.hh"

namespace csync
{

ProcAction
Protocol::procRmw(Cache &c, Frame *f, const MemOp &op)
{
    if (!features().atomicRmw) {
        // Table 1, Feature 6 blank: the protocol's publication defines
        // no serialized read-modify-write.  Running one anyway would
        // either livelock (the write-once's premise keeps dying) or
        // silently return stale values, so the contract is explicit.
        panic("protocol '%s' does not serialize atomic "
              "read-modify-writes (Feature 6)",
              name().c_str());
    }
    // Feature 6, second method: fetch the block for sole-access (write)
    // privilege at the start of the instruction; the atomic bus plus the
    // blocking cache keep the read-modify-write indivisible.
    return procWrite(c, f, op);
}

ProcAction
Protocol::procLockRead(Cache &, Frame *, const MemOp &)
{
    panic("protocol '%s' does not implement the lock instruction",
          name().c_str());
}

ProcAction
Protocol::procUnlockWrite(Cache &, Frame *, const MemOp &)
{
    panic("protocol '%s' does not implement the unlock instruction",
          name().c_str());
}

ProcAction
Protocol::procWriteNoFetch(Cache &c, Frame *f, const MemOp &op)
{
    // Protocols without Feature 9 treat it as an ordinary write.
    return procWrite(c, f, op);
}

bool
Protocol::evictNeedsWriteback(Cache &, const Frame &f) const
{
    return isDirty(f.state);
}

void
Protocol::onEvict(Cache &, Frame &)
{
}

std::map<std::string, ProtocolRegistry::Maker> &
ProtocolRegistry::makers()
{
    static std::map<std::string, Maker> m;
    return m;
}

bool
ProtocolRegistry::registerProtocol(const std::string &name, Maker maker)
{
    makers()[name] = std::move(maker);
    return true;
}

std::unique_ptr<Protocol>
ProtocolRegistry::make(const std::string &name)
{
    auto it = makers().find(name);
    if (it == makers().end())
        fatal("unknown protocol '%s'", name.c_str());
    return it->second();
}

std::vector<std::string>
ProtocolRegistry::names()
{
    std::vector<std::string> out;
    for (const auto &kv : makers())
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
ProtocolRegistry::table1Order()
{
    return {"goodman", "synapse", "illinois", "yen", "berkeley", "bitar"};
}

std::unique_ptr<Protocol>
makeProtocol(const std::string &name)
{
    return ProtocolRegistry::make(name);
}

} // namespace csync
