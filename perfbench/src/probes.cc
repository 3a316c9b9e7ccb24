#include "probes.hh"

#include <memory>
#include <unordered_map>

#include "coherence/protocol.hh"
#include "mc/explorer.hh"
#include "sim/event_queue.hh"
#include "trace/reader.hh"

#include "sim_job.hh"

namespace perfbench
{

using namespace csync;

namespace
{

std::uint64_t
xorshift(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** One word-granular memory that answers every op at once. */
AccessResult
applyOp(std::unordered_map<Addr, Word> &mem, const MemOp &op)
{
    AccessResult r;
    Word &w = mem[op.addr];
    switch (op.type) {
      case OpType::Read:
      case OpType::LockRead:
        r.value = w;
        break;
      case OpType::Rmw:
        r.value = w;
        w = op.value;
        break;
      default:
        w = op.value;
        break;
    }
    return r;
}

struct Issued
{
    unsigned proc;
    MemOp op;
};

/** Reschedules itself until the shared budget runs out. */
struct HoldEvent
{
    EventQueue *eq;
    std::uint64_t *left;
    std::uint64_t *rng;

    void
    operator()()
    {
        if (*left == 0)
            return;
        --*left;
        *rng = xorshift(*rng);
        eq->scheduleIn(1 + (*rng & 63), HoldEvent(*this));
    }
};

} // anonymous namespace

SourceDrive
driveSources(const harness::JobSpec &job, std::uint64_t max_ops,
             SpanRecorder *rec, long parent)
{
    SourceDrive out;
    unsigned n = job.config.numProcessors;
    std::vector<std::unique_ptr<Workload>> sources;
    for (unsigned i = 0; i < n; ++i) {
        std::string err;
        auto w = harness::makeWorkload(job.workload, slotFor(job, i), &err);
        if (!w)
            return out;
        sources.push_back(std::move(w));
    }

    std::vector<Issued> log;
    log.reserve(max_ops);
    {
        Span s(rec, "proc.op_source", parent);
        std::unordered_map<Addr, Word> mem;
        std::vector<bool> done(n, false);
        unsigned live = n;
        while (live && log.size() < max_ops) {
            std::size_t before = log.size();
            for (unsigned i = 0; i < n && log.size() < max_ops; ++i) {
                if (done[i])
                    continue;
                MemOp op;
                Tick think = 0;
                NextStatus st = sources[i]->next(op, think);
                if (st == NextStatus::Finished) {
                    done[i] = true;
                    --live;
                } else if (st == NextStatus::Op) {
                    sources[i]->onResult(op, applyOp(mem, op));
                    log.push_back(Issued{i, op});
                }
            }
            if (log.size() == before && live)
                break; // every live source is stalled: nothing to drive
        }
    }
    {
        // The same memory traffic without the sources, so the caller
        // can subtract what the functional memory itself cost.
        Span s(rec, "proc.op_source_baseline", parent);
        std::unordered_map<Addr, Word> mem;
        std::vector<Issued> sink;
        sink.reserve(log.size());
        for (const Issued &e : log) {
            sink.push_back(e);
            sink.back().op.value ^= applyOp(mem, e.op).value;
        }
    }

    out.ops = log.size();
    out.addrs.resize(n);
    for (const Issued &e : log)
        out.addrs[e.proc].push_back(e.op.addr);
    return out;
}

std::uint64_t
probeTags(const CacheGeometry &geom,
          const std::vector<std::vector<Addr>> &streams, SpanRecorder *rec,
          long parent)
{
    std::vector<CacheBlocks> arrays(streams.size(), CacheBlocks(geom));
    std::uint64_t accesses = 0;
    Tick t = 0;
    Span s(rec, "cache.tags", parent);
    for (std::size_t k = 0; k < streams.size(); ++k) {
        CacheBlocks &tags = arrays[k];
        for (Addr a : streams[k]) {
            Addr blk = tags.blockAlign(a);
            Frame *f = tags.find(blk);
            if (!f) {
                f = tags.victim(blk);
                f->state = Rd;
                tags.install(*f, blk);
            }
            tags.touch(*f, ++t);
            ++accesses;
        }
    }
    return accesses;
}

std::uint64_t
probeEventQueue(std::size_t depth, std::uint64_t events, std::uint64_t seed,
                SpanRecorder *rec, long parent)
{
    EventQueue eq;
    std::uint64_t left = events;
    std::uint64_t rng = seed | 1;
    for (std::size_t d = 0; d < std::max<std::size_t>(depth, 1); ++d)
        eq.schedule(1 + d % 64, HoldEvent{&eq, &left, &rng});
    Span s(rec, "sim.eq", parent);
    return eq.run();
}

std::uint64_t
probeDecode(const std::string &path, CheckTally &checks, SpanRecorder *rec,
            long parent)
{
    trace::TraceReader reader;
    std::string err;
    if (!reader.open(path, &err)) {
        checks.check(false, "decode probe: " + err);
        return 0;
    }
    std::uint64_t events = 0;
    trace::TraceEvent ev;
    Span s(rec, "trace.decode", parent);
    for (unsigned t = 0; t < reader.numThreads(); ++t) {
        for (;;) {
            auto st = reader.next(t, &ev, &err);
            if (st == trace::TraceReader::Status::Event) {
                ++events;
            } else if (st == trace::TraceReader::Status::Error) {
                checks.check(false, "decode probe: " + err);
                return 0;
            } else {
                break;
            }
        }
    }
    return events;
}

DirectedTrace
explorerShape(const std::string &protocol, unsigned caches)
{
    DirectedTrace shape;
    shape.protocol = protocol;
    shape.processors = caches;
    shape.blockWords = 4;
    shape.frames = 4;
    shape.ways = 1;
    return shape;
}

void
probeReplay(const std::string &protocol, unsigned caches, unsigned blocks,
            unsigned depth, unsigned count, std::uint64_t seed,
            CheckTally &checks, SpanRecorder *rec, long parent)
{
    // The explorer's alphabet (mc/explorer.cc), rebuilt from its
    // public pieces.
    DirectedTrace shape = explorerShape(protocol, caches);
    bool locks = makeProtocol(protocol)->supportsLockOps();

    std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull | 1;
    std::vector<DirectedOp> enabled;
    for (unsigned k = 0; k < count; ++k) {
        Span c(rec, "system.replay_construct", parent, k);
        TraceReplayer r(shape);
        c.close();

        rng = xorshift(rng);
        unsigned len = 1 + unsigned(rng % depth);
        for (unsigned step = 0; step < len; ++step) {
            enabled.clear();
            for (unsigned cache = 0; cache < caches; ++cache) {
                if (r.busy(cache))
                    continue;
                for (unsigned b = 0; b < blocks; ++b) {
                    Addr addr = mc::StateExplorer::blockAddr(b);
                    NodeId holder = r.system().checker().lockHolder(addr);
                    Word v = mc::StateExplorer::writeValue(step, cache);
                    enabled.push_back({cache, DirectedKind::Read, addr, 0});
                    enabled.push_back({cache, DirectedKind::Write, addr, v});
                    if (locks && holder != NodeId(cache)) {
                        enabled.push_back(
                            {cache, DirectedKind::LockRead, addr, 0});
                    }
                    if (locks && holder == NodeId(cache)) {
                        enabled.push_back(
                            {cache, DirectedKind::UnlockWrite, addr, v});
                    }
                    if (isValid(r.system().cache(cache).stateOf(addr))) {
                        enabled.push_back(
                            {cache, DirectedKind::Evict, addr, 0});
                    }
                }
            }
            if (enabled.empty())
                break;
            rng = xorshift(rng);
            Span s(rec, "system.replay_step", parent, k);
            r.step(enabled[rng % enabled.size()]);
        }
        {
            Span d(rec, "system.replay_digest", parent, k);
            std::string digest = r.digest();
            d.close();
            checks.check(!digest.empty(), "replay probe: empty digest");
        }
        ReplayVerdict v = r.verdict();
        checks.check(v.clean(), "replay probe: " + protocol + ": " +
                                    v.describe());
    }
}

} // namespace perfbench
