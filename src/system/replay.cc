#include "system/replay.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace csync
{

namespace
{

struct KindName
{
    DirectedKind kind;
    const char *name;
};

const KindName kKindNames[] = {
    {DirectedKind::Read, "read"},
    {DirectedKind::Write, "write"},
    {DirectedKind::Rmw, "rmw"},
    {DirectedKind::LockRead, "lock_read"},
    {DirectedKind::UnlockWrite, "unlock_write"},
    {DirectedKind::WriteNoFetch, "write_no_fetch"},
    {DirectedKind::Evict, "evict"},
};

} // anonymous namespace

const char *
directedKindName(DirectedKind k)
{
    for (const auto &kn : kKindNames)
        if (kn.kind == k)
            return kn.name;
    return "?";
}

bool
directedKindFromName(const std::string &name, DirectedKind *out)
{
    for (const auto &kn : kKindNames) {
        if (name == kn.name) {
            *out = kn.kind;
            return true;
        }
    }
    return false;
}

SystemConfig
DirectedTrace::toConfig() const
{
    SystemConfig cfg;
    cfg.name = "system";
    cfg.protocol = protocol;
    cfg.numProcessors = processors;
    cfg.cache.geom.frames = frames;
    cfg.cache.geom.ways = ways;
    cfg.cache.geom.blockWords = blockWords;
    cfg.cache.useBusyWaitRegister = useBusyWaitRegister;
    cfg.cache.busyWaitPriority = busyWaitPriority;
    cfg.adaptive.counterBits = adaptiveBits;
    cfg.adaptive.invalidateThreshold = adaptiveInvalidateThreshold;
    cfg.adaptive.updateThreshold = adaptiveUpdateThreshold;
    if (!TopologyConfig::fromName(topology, &cfg.topology))
        fatal("trace names unknown topology '%s'", topology.c_str());
    cfg.enableChecker = true;
    return cfg;
}

std::string
ReplayVerdict::describe() const
{
    if (clean())
        return "clean";
    std::string s;
    auto add = [&s](const std::string &part) {
        s += (s.empty() ? "" : ", ") + part;
    };
    if (checkerViolations)
        add(csprintf("%llu checker violation(s)",
                     (unsigned long long)checkerViolations));
    if (invariantViolations)
        add(csprintf("%u structural violation(s)", invariantViolations));
    if (stalled)
        add("stalled");
    if (waiterStuck)
        add("lost wakeup");
    return s;
}

TraceReplayer::TraceReplayer(const DirectedTrace &shape)
    : recorded_(shape), scenario_(shape.toConfig())
{
    recorded_.ops.clear();
}

Addr
TraceReplayer::fillerAddr(Addr block_addr) const
{
    Addr block_bytes = Addr(recorded_.blockWords) * bytesPerWord;
    // One whole cache "turn" away: same set index in a direct-mapped
    // cache, so fetching it displaces the target block.
    return (block_addr & ~(block_bytes - 1)) +
           Addr(recorded_.frames) * block_bytes;
}

void
TraceReplayer::noteBlock(Addr block_addr)
{
    Addr b = system().memory().blockAlign(block_addr);
    auto it = std::lower_bound(blocks_.begin(), blocks_.end(), b);
    if (it == blocks_.end() || *it != b)
        blocks_.insert(it, b);
}

bool
TraceReplayer::pendingCompleted(unsigned cache, Word *value) const
{
    AccessResult r;
    if (!scenario_.pendingCompleted(cache, &r))
        return false;
    if (value)
        *value = r.value;
    return true;
}

OpOutcome
TraceReplayer::step(const DirectedOp &op)
{
    recorded_.ops.push_back(op);
    OpOutcome out;
    System &sys = system();
    sim_assert(op.cache < recorded_.processors, "trace op on cache %u of %u",
               op.cache, recorded_.processors);

    noteBlock(op.addr);

    if (scenario_.stalled() || busy(op.cache)) {
        ++skipped_;
        return out;
    }

    // Lock discipline: unlocking a block the cache does not hold (or
    // re-locking one it does) is a *program* bug the cache treats as
    // fatal, not a protocol bug.  Skip such ops so arbitrary (fuzzed or
    // hand-written) traces stay safe to replay.
    Addr blk = sys.memory().blockAlign(op.addr);
    NodeId holder = sys.checker().lockHolder(blk);
    if (op.kind == DirectedKind::UnlockWrite && holder != NodeId(op.cache)) {
        ++skipped_;
        return out;
    }
    if (op.kind == DirectedKind::LockRead && holder == NodeId(op.cache)) {
        ++skipped_;
        return out;
    }

    MemOp mop;
    mop.addr = op.addr;
    mop.value = op.value;
    switch (op.kind) {
      case DirectedKind::Read:         mop.type = OpType::Read; break;
      case DirectedKind::Write:        mop.type = OpType::Write; break;
      case DirectedKind::Rmw:          mop.type = OpType::Rmw; break;
      case DirectedKind::LockRead:     mop.type = OpType::LockRead; break;
      case DirectedKind::UnlockWrite:  mop.type = OpType::UnlockWrite; break;
      case DirectedKind::WriteNoFetch:
        mop.type = OpType::WriteNoFetch;
        break;
      case DirectedKind::Evict:
        // Displace the block through the real eviction path by reading
        // the conflicting filler block.  traceFromJson rejects evict
        // ops on other shapes; this guards programmatic callers.
        sim_assert(recorded_.ways == 1,
                   "evict ops need a direct-mapped trace shape");
        mop.type = OpType::Read;
        mop.addr = fillerAddr(op.addr);
        mop.value = 0;
        noteBlock(mop.addr);
        break;
    }

    // Ops issue on a fixed cadence of one settle window each: the clock
    // idles to the window's end, so an op's issue tick (which checker
    // violation text reports) depends only on how many ops were issued
    // before it, not on how fast they drained.
    Tick window_end = sys.now() + Scenario::kSettleBudget;
    AccessResult r;
    out.issued = true;
    out.completed = scenario_.tryRun(op.cache, mop, &r);
    out.pending = !out.completed;
    if (out.completed)
        out.value = r.value;
    sys.eventq().run(window_end);
    return out;
}

ReplayVerdict
TraceReplayer::verdict()
{
    scenario_.settle();
    System &sys = system();
    ReplayVerdict v;
    v.skippedOps = skipped_;
    v.stalled = scenario_.stalled();
    v.checkerViolations = sys.checker().violations();
    std::string why;
    v.invariantViolations = sys.checkStateInvariants(&why);

    std::string stuck;
    if (!v.stalled) {
        // Lock-waiter liveness: at quiescence an armed busy-wait
        // register must be waiting on a lock somebody still holds —
        // otherwise the wakeup was lost and the waiter spins forever.
        for (unsigned i = 0; i < sys.numCaches(); ++i) {
            Cache &c = sys.cache(i);
            if (!c.busyWaitArmed())
                continue;
            Addr blk = c.busyWaitAddr();
            if (sys.checker().lockHolder(blk) == invalidNode &&
                !sys.memory().memLocked(blk)) {
                v.waiterStuck = true;
                if (stuck.empty()) {
                    stuck = csprintf(
                        "lost wakeup: cache%u busy-waits on blk=%llx "
                        "with no live lock holder",
                        i, (unsigned long long)blk);
                }
            }
        }
    }

    if (v.checkerViolations)
        v.firstProblem = sys.checker().firstViolation();
    else if (v.invariantViolations)
        v.firstProblem = why;
    else if (v.stalled)
        v.firstProblem = csprintf(
            "stalled: event queue failed to drain within %llu ticks",
            (unsigned long long)Scenario::kSettleBudget);
    else if (v.waiterStuck)
        v.firstProblem = stuck;
    return v;
}

namespace
{

/** @name Digest fields.  A word is a LEB128 varint: self-delimiting,
 *  so a concatenation of fields decodes one way, and one byte for the
 *  small values the explorer writes. */
/// @{
void
putByte(std::string &d, unsigned v)
{
    d.push_back(char(v));
}

void
putWord(std::string &d, std::uint64_t v)
{
    while (v >= 0x80) {
        d.push_back(char(0x80 | (v & 0x7f)));
        v >>= 7;
    }
    d.push_back(char(v));
}

/** A node id, shifted so invalidNode (-1) encodes as 0. */
void
putNode(std::string &d, NodeId n)
{
    putWord(d, std::uint64_t(std::int64_t(n) + 1));
}
/// @}

} // anonymous namespace

std::string
TraceReplayer::digest()
{
    // A binary encoding: the touched-block list first, then
    // self-delimiting fields whose count is fixed by the trace shape, a
    // flag or a preceding length, so two digests are equal exactly when
    // every field is.  Built in a reused buffer and returned at its
    // exact size: the explorer keeps every distinct digest.
    thread_local std::string d;
    d.clear();
    System &sys = system();
    const unsigned words = recorded_.blockWords;
    putWord(d, blocks_.size());
    for (Addr b : blocks_)
        putWord(d, b);
    for (unsigned i = 0; i < sys.numCaches(); ++i) {
        Cache &c = sys.cache(i);
        for (Addr b : blocks_) {
            const Frame *f = c.peekFrame(b);
            if (!f || !f->valid()) {
                putByte(d, 0);
                continue;
            }
            putByte(d, 1);
            putByte(d, f->state);
            for (unsigned w = 0; w < words; ++w)
                putWord(d, f->data[w]);
        }
        putByte(d, c.busyWaitArmed());
        if (c.busyWaitArmed())
            putWord(d, c.busyWaitAddr());
        // The digest walks every cache *port* (numCaches is processors
        // x switches); the replayer's issue slots are per processor, so
        // only the first port block consults them.
        putByte(d, i < recorded_.processors && busy(i));
        for (Addr b : blocks_)
            putByte(d, c.holdsPurgedLock(b));
        std::string proto = c.protocol().snapshotState();
        putWord(d, proto.size());
        d += proto;
    }
    Memory &mem = sys.memory();
    for (Addr b : blocks_) {
        const std::vector<Word> *data = mem.storedBlock(b);
        for (unsigned w = 0; w < words; ++w)
            putWord(d, data ? (*data)[w] : 0);
        putByte(d, mem.cacheOwned(b));
        putByte(d, mem.memLocked(b));
        if (mem.memLocked(b)) {
            putNode(d, mem.memLockHolder(b));
            putByte(d, mem.memWaiter(b));
        }
    }
    const Checker &chk = sys.checker();
    for (Addr b : blocks_) {
        for (unsigned w = 0; w < words; ++w)
            putWord(d, chk.expectedValue(b + Addr(w) * bytesPerWord));
        putNode(d, chk.lockHolder(b));
    }
    // Inclusive L2 tags are architectural on clustered machines: they
    // steer future snoop forwarding, so two states that differ only in
    // tag residency are not interchangeable for further exploration.
    for (unsigned c = 0; c < sys.numSharedCaches(); ++c) {
        for (Addr b : blocks_) {
            std::size_t home = sys.addressMap().switchFor(b);
            putByte(d, sys.sharedCache(c).tagPresent(home, b));
        }
    }
    return std::string(d);
}

void
TraceReplayer::checkpoint(Checkpoint &out) const
{
    scenario_.checkpoint(out.scenario);
    out.blocks = blocks_;
    out.skipped = skipped_;
    out.ops = recorded_.ops.size();
}

void
TraceReplayer::restore(const Checkpoint &cp)
{
    sim_assert(cp.ops <= recorded_.ops.size(),
               "replay checkpoint is not a prefix of this replay");
    scenario_.restore(cp.scenario);
    blocks_ = cp.blocks;
    skipped_ = cp.skipped;
    recorded_.ops.resize(cp.ops);
}

ReplayVerdict
replayTrace(const DirectedTrace &trace)
{
    TraceReplayer r(trace);
    for (const DirectedOp &op : trace.ops)
        r.step(op);
    return r.verdict();
}

harness::Json
traceToJson(const DirectedTrace &t)
{
    harness::Json j = harness::Json::object();
    j.set("protocol", t.protocol);
    j.set("processors", t.processors);
    j.set("block_words", t.blockWords);
    j.set("frames", t.frames);
    j.set("ways", t.ways);
    j.set("busy_wait_register", t.useBusyWaitRegister);
    j.set("busy_wait_priority", t.busyWaitPriority);
    // Adaptive tuning rides along only when non-default, keeping every
    // pre-existing trace (and the committed golden) byte-identical.
    if (t.adaptiveBits != 2)
        j.set("adaptive_bits", t.adaptiveBits);
    if (t.adaptiveInvalidateThreshold != 2)
        j.set("adaptive_invalidate_threshold", t.adaptiveInvalidateThreshold);
    if (t.adaptiveUpdateThreshold != 2)
        j.set("adaptive_update_threshold", t.adaptiveUpdateThreshold);
    if (t.topology != "single_bus")
        j.set("topology", t.topology);
    harness::Json ops = harness::Json::array();
    for (const DirectedOp &op : t.ops) {
        harness::Json o = harness::Json::object();
        o.set("cache", op.cache);
        o.set("op", directedKindName(op.kind));
        o.set("addr", csprintf("0x%llx", (unsigned long long)op.addr));
        o.set("value", std::uint64_t(op.value));
        ops.push(std::move(o));
    }
    j.set("ops", std::move(ops));
    return j;
}

bool
traceFromJson(const harness::Json &j, DirectedTrace *out, std::string *err)
{
    auto fail = [err](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };
    if (!j.isObject())
        return fail("trace: not a JSON object");
    // Absent fields keep DirectedTrace's defaults; present ones must
    // be in range.
    std::string why;
    auto field = [&why](const harness::Json &obj, const char *key,
                        auto *dst) {
        return obj[key].isNull() ||
               harness::readUnsigned(obj[key], csprintf("\"%s\"", key),
                                     dst, &why);
    };
    DirectedTrace t;
    if (!j["protocol"].isString())
        return fail("trace: missing protocol");
    t.protocol = j["protocol"].asString();
    if (!field(j, "processors", &t.processors) ||
        !field(j, "block_words", &t.blockWords) ||
        !field(j, "frames", &t.frames) || !field(j, "ways", &t.ways) ||
        !field(j, "adaptive_bits", &t.adaptiveBits) ||
        !field(j, "adaptive_invalidate_threshold",
               &t.adaptiveInvalidateThreshold) ||
        !field(j, "adaptive_update_threshold",
               &t.adaptiveUpdateThreshold)) {
        return fail("trace: " + why);
    }
    t.useBusyWaitRegister = j["busy_wait_register"].asBool(true);
    t.busyWaitPriority = j["busy_wait_priority"].asBool(true);
    if (j["topology"].isString())
        t.topology = j["topology"].asString();
    const harness::Json &ops = j["ops"];
    if (!ops.isArray())
        return fail("trace: missing ops array");
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const harness::Json &o = ops.at(i);
        DirectedOp op;
        if (!field(o, "cache", &op.cache))
            return fail(csprintf("trace: op %zu: %s", i, why.c_str()));
        if (!o["op"].isString() ||
            !directedKindFromName(o["op"].asString(), &op.kind)) {
            return fail(csprintf("trace: op %zu: bad kind", i));
        }
        if (!harness::readAddress(o["addr"], "\"addr\"", &op.addr, &why) ||
            !field(o, "value", &op.value)) {
            return fail(csprintf("trace: op %zu: %s", i, why.c_str()));
        }
        if (op.cache >= t.processors)
            return fail(csprintf("trace: op %zu: cache out of range", i));
        if (op.kind == DirectedKind::Evict && t.ways != 1) {
            return fail(csprintf("trace: op %zu: evict needs a "
                                 "direct-mapped shape (ways 1, not %u)",
                                 i, t.ways));
        }
        t.ops.push_back(op);
    }
    *out = std::move(t);
    return true;
}

harness::Json
verdictToJson(const ReplayVerdict &v)
{
    harness::Json j = harness::Json::object();
    j.set("clean", v.clean());
    j.set("checker_violations", v.checkerViolations);
    j.set("invariant_violations", v.invariantViolations);
    j.set("skipped_ops", v.skippedOps);
    j.set("stalled", v.stalled);
    j.set("waiter_stuck", v.waiterStuck);
    j.set("first_problem", v.firstProblem);
    return j;
}

} // namespace csync
