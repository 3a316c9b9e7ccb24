#include "core/transitions.hh"

#include <set>
#include <sstream>

#include "system/scenario.hh"

namespace csync
{

const char *
otherStatusName(OtherStatus s)
{
    switch (s) {
      case OtherStatus::None: return "I";
      case OtherStatus::ReadSource: return "R(src)";
      case OtherStatus::ReadNoSource: return "R(no-src)";
      case OtherStatus::DirtyCopy: return "W.D";
      case OtherStatus::Locked: return "Lock";
      default: return "?";
    }
}

namespace
{

constexpr Addr X = 0x1000;

SystemConfig
enumOpts(const std::string &protocol)
{
    SystemConfig c;
    c.protocol = protocol;
    c.numProcessors = 2;
    c.cache.geom.frames = 16;
    c.enableChecker = false;
    return c;
}

void
installOther(Scenario &s, OtherStatus other)
{
    switch (other) {
      case OtherStatus::None:
        return;
      case OtherStatus::ReadSource:
        s.cache(1).installFrameForTest(X, RdSrcCln);
        return;
      case OtherStatus::ReadNoSource:
        s.cache(1).installFrameForTest(X, Rd);
        return;
      case OtherStatus::DirtyCopy:
        s.cache(1).installFrameForTest(X, WrSrcDty);
        return;
      case OtherStatus::Locked:
        s.cache(1).installFrameForTest(X, LkSrcDty);
        return;
    }
}

/** Is (from, other) a reachable configuration? */
bool
configValid(State from, OtherStatus other)
{
    if (isValid(from)) {
        // A writable/locked copy excludes all other copies; any valid
        // copy excludes a dirty or locked copy elsewhere.
        if (canWrite(from))
            return other == OtherStatus::None;
        if (other == OtherStatus::DirtyCopy ||
            other == OtherStatus::Locked) {
            return false;
        }
        // Two sources cannot coexist.
        if (isSource(from) && other == OtherStatus::ReadSource)
            return false;
    }
    return true;
}

/** Which bus requests ran between two snapshots, as "a+b". */
std::string
busReqsUsed(Bus &bus, const std::vector<double> &before)
{
    std::string out;
    for (unsigned i = 0; i < kNumBusReqs; ++i) {
        double delta = bus.typeCount(BusReq(i)) - before[i];
        for (int k = 0; k < int(delta); ++k) {
            if (!out.empty())
                out += "+";
            out += busReqName(BusReq(i));
        }
    }
    return out.empty() ? "-" : out;
}

std::vector<double>
snapshot(Bus &bus)
{
    std::vector<double> v;
    for (unsigned i = 0; i < kNumBusReqs; ++i)
        v.push_back(bus.typeCount(BusReq(i)));
    return v;
}

MemOp
opFor(OpType t)
{
    MemOp op;
    op.type = t;
    op.addr = X;
    op.value = 0;
    return op;
}

} // anonymous namespace

std::vector<Transition>
enumerateTransitions(const std::string &protocol)
{
    std::vector<Transition> arcs;
    std::set<std::string> seen;
    auto proto = makeProtocol(protocol);
    std::vector<State> states = proto->statesUsed();
    bool locks = proto->supportsLockOps();

    auto record = [&](Transition t) {
        std::string key = csprintf("%d|%d|%d|%s", int(t.from), int(t.to),
                                   int(t.processorSide), t.label.c_str());
        if (seen.insert(key).second)
            arcs.push_back(std::move(t));
    };

    // Processor-induced arcs.
    std::vector<OpType> ops = {OpType::Read, OpType::Write,
                               OpType::WriteNoFetch};
    if (proto->features().atomicRmw || locks)
        ops.push_back(OpType::Rmw);
    if (locks) {
        ops.push_back(OpType::LockRead);
        ops.push_back(OpType::UnlockWrite);
    }
    std::vector<OtherStatus> others = {
        OtherStatus::None, OtherStatus::ReadSource,
        OtherStatus::ReadNoSource, OtherStatus::DirtyCopy,
        OtherStatus::Locked};

    for (State from : states) {
        for (OpType t : ops) {
            // Skip program errors.
            if (t == OpType::UnlockWrite && !isLocked(from))
                continue;
            if (t == OpType::LockRead && isLocked(from))
                continue;
            for (OtherStatus other : others) {
                if (!configValid(from, other))
                    continue;
                if (other == OtherStatus::Locked && from != Inv)
                    continue;

                Scenario s(enumOpts(protocol));
                if (from != Inv)
                    s.cache(0).installFrameForTest(X, from);
                installOther(s, other);

                auto before = snapshot(s.system().bus());
                bool done = s.tryRun(0, opFor(t));
                Transition tr;
                tr.from = from;
                tr.to = s.state(0, X);
                tr.processorSide = true;
                tr.label = csprintf(
                    "%s : %s : %s", opTypeName(t),
                    busReqsUsed(s.system().bus(), before).c_str(),
                    otherStatusName(other));
                if (!done) {
                    tr.note = "denied; busy wait begins (Fig. 7)";
                    if (hasWaiter(s.state(1, X)))
                        tr.note += "; waiter recorded in locker";
                } else if (other == OtherStatus::Locked) {
                    tr.note = "lock was held; completed via busy-wait "
                              "hand-off";
                }
                record(std::move(tr));
            }
        }
    }

    // Bus-induced (snooped) arcs: cache 1 acts, cache 0 snoops.
    struct Stim
    {
        OpType t;
        State otherStart;    // cache 1's starting state
        const char *desc;
    };
    std::vector<Stim> stims = {
        {OpType::Read, Inv, "read miss elsewhere"},
        {OpType::Write, Inv, "write miss elsewhere"},
        {OpType::Write, Rd, "write hit (read copy) elsewhere"},
    };
    if (proto->features().atomicRmw || locks)
        stims.push_back({OpType::Rmw, Inv, "atomic RMW elsewhere"});
    if (locks)
        stims.push_back({OpType::LockRead, Inv, "lock request elsewhere"});

    for (State from : states) {
        if (!isValid(from))
            continue;
        for (const auto &st : stims) {
            // cache1 holding a read copy is only consistent if cache0
            // does not hold the block exclusively.
            if (st.otherStart != Inv && canWrite(from))
                continue;

            Scenario s(enumOpts(protocol));
            s.cache(0).installFrameForTest(X, from);
            if (st.otherStart != Inv)
                s.cache(1).installFrameForTest(X, st.otherStart);

            auto before = snapshot(s.system().bus());
            bool done = s.tryRun(1, opFor(st.t));
            Transition tr;
            tr.from = from;
            tr.to = s.state(0, X);
            tr.processorSide = false;
            tr.label = busReqsUsed(s.system().bus(), before);
            tr.note = st.desc;
            if (!done)
                tr.note += "; requester busy waits";
            record(std::move(tr));
        }
    }
    return arcs;
}

std::string
renderTransitions(const std::vector<Transition> &arcs,
                  const std::string &protocol)
{
    std::ostringstream os;
    os << "Figure 10. Cache state transitions (" << protocol << ")\n";
    os << "Arc label fields: Processor Request : Bus Request(s) : Status "
          "in Other Cache.\n\n";

    os << "Processor-induced arcs:\n";
    for (const auto &t : arcs) {
        if (!t.processorSide)
            continue;
        os << csprintf("  %-22s -> %-22s  [%s]%s%s\n",
                       stateName(t.from).c_str(), stateName(t.to).c_str(),
                       t.label.c_str(), t.note.empty() ? "" : "  -- ",
                       t.note.c_str());
    }
    os << "\nBus-induced (snooped) arcs:\n";
    for (const auto &t : arcs) {
        if (t.processorSide)
            continue;
        os << csprintf("  %-22s -> %-22s  [%s]%s%s\n",
                       stateName(t.from).c_str(), stateName(t.to).c_str(),
                       t.label.c_str(), t.note.empty() ? "" : "  -- ",
                       t.note.c_str());
    }
    return os.str();
}

} // namespace csync
