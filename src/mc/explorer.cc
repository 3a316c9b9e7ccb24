#include "mc/explorer.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace csync
{
namespace mc
{

namespace
{

/** Base address of model block 0; blocks are consecutive. */
constexpr Addr kBlockBase = 0x1000;
/** Model geometry: 4-word blocks in a 4-frame direct-mapped cache, so
 *  consecutive blocks live in distinct sets and each block has exactly
 *  one conflicting filler (replay.hh, Evict). */
constexpr unsigned kBlockWords = 4;
constexpr unsigned kFrames = 4;

} // anonymous namespace

ExploreBounds
ExploreBounds::smoke()
{
    ExploreBounds b;
    b.caches = 2;
    b.blocks = 1;
    b.depth = 4;
    return b;
}

ExploreBounds
ExploreBounds::deep()
{
    ExploreBounds b;
    b.caches = 3;
    b.blocks = 2;
    b.depth = 6;
    return b;
}

std::string
ExploreBounds::describe() const
{
    return csprintf("%u caches, %u block(s), depth %u%s%s%s", caches,
                    blocks, depth, lockOps ? "" : ", no locks",
                    evictOps ? "" : ", no evicts",
                    topology == "single_bus"
                        ? ""
                        : csprintf(", %s", topology.c_str()).c_str());
}

Addr
StateExplorer::blockAddr(unsigned block)
{
    return kBlockBase + Addr(block) * kBlockWords * bytesPerWord;
}

Word
StateExplorer::writeValue(unsigned step, unsigned cache)
{
    // Fresh and nonzero at every step: a stale copy can never alias the
    // value the serialization model expects, so dedup by digest stays
    // sound under the per-step renaming of written constants.
    return (Word(step + 1) << 4) | Word(cache + 1);
}

StateExplorer::StateExplorer(const ExploreBounds &bounds) : bounds_(bounds)
{
    sim_assert(bounds_.caches >= 1 && bounds_.blocks >= 1 &&
               bounds_.depth >= 1, "degenerate explore bounds");
}

std::vector<std::string>
StateExplorer::shippedProtocols()
{
    std::vector<std::string> out;
    for (const auto &name : ProtocolRegistry::names()) {
        if (name.rfind("broken_", 0) != 0)
            out.push_back(name);
    }
    return out;
}

DirectedTrace
StateExplorer::shapeFor(const std::string &protocol) const
{
    DirectedTrace shape;
    shape.protocol = protocol;
    shape.processors = bounds_.caches;
    shape.blockWords = kBlockWords;
    shape.frames = kFrames;
    shape.ways = 1;
    shape.topology = bounds_.topology;
    if (protocol.find("adaptive") != std::string::npos) {
        // Pin the mode-switch thresholds to 1 so both hybrid modes and
        // the flip edges between them are reachable within the depth
        // bound; the per-block counters ride the state digest.
        shape.adaptiveBits = 1;
        shape.adaptiveInvalidateThreshold = 1;
        shape.adaptiveUpdateThreshold = 1;
    }
    return shape;
}

std::vector<StateExplorer::AlphaOp>
StateExplorer::alphabetFor(const std::string &protocol) const
{
    bool locks = bounds_.lockOps && makeProtocol(protocol)->supportsLockOps();
    std::vector<AlphaOp> alphabet;
    for (unsigned c = 0; c < bounds_.caches; ++c) {
        for (unsigned b = 0; b < bounds_.blocks; ++b) {
            alphabet.push_back({c, DirectedKind::Read, b});
            alphabet.push_back({c, DirectedKind::Write, b});
            if (locks) {
                alphabet.push_back({c, DirectedKind::LockRead, b});
                alphabet.push_back({c, DirectedKind::UnlockWrite, b});
            }
            if (bounds_.evictOps)
                alphabet.push_back({c, DirectedKind::Evict, b});
        }
    }
    return alphabet;
}

bool
StateExplorer::enabled(TraceReplayer &r, const AlphaOp &a) const
{
    if (r.busy(a.cache))
        return false;
    Addr addr = blockAddr(a.block);
    NodeId holder = r.system().checker().lockHolder(addr);
    switch (a.kind) {
      case DirectedKind::Read:
      case DirectedKind::Write:
        return true;
      case DirectedKind::Evict:
        // Only meaningful while the block is resident.
        return isValid(r.system().cache(a.cache).stateOf(addr));
      case DirectedKind::LockRead:
        // Lock discipline: a holder never re-locks its own block (it
        // would self-deadlock); contending with another holder is
        // explored (the op pends on the busy-wait register).
        return holder != NodeId(a.cache);
      case DirectedKind::UnlockWrite:
        // Only the serialized holder may unlock (anything else is a
        // program bug, which the cache treats as fatal).
        return holder == NodeId(a.cache);
      default:
        return false;
    }
}

bool
StateExplorer::dfs(TraceReplayer &r, const std::vector<AlphaOp> &alphabet,
                   unsigned depth, ExploreResult &res)
{
    ReplayVerdict v = r.verdict();
    ++res.statesVisited;
    if (!v.clean()) {
        res.violationFound = true;
        res.counterexample = r.recorded();
        res.counterexampleVerdict = v;
        return true;
    }
    if (depth >= bounds_.depth)
        return false;

    std::string d = r.digest();
    auto it = visited_.find(d);
    if (it != visited_.end() && it->second <= depth) {
        // Reached before with at least as much depth budget left: every
        // continuation from here was (or will be) explored from there.
        ++res.statesDeduped;
        return false;
    }
    if (it == visited_.end())
        visited_.emplace(std::move(d), depth);
    else
        it->second = depth;

    // Every child starts from this state: save it once, and restore it
    // whenever a child has moved the replayer on.
    TraceReplayer::Checkpoint &here = checkpoints_[depth];
    r.checkpoint(here);
    bool moved = false;
    for (const AlphaOp &a : alphabet) {
        if (moved) {
            r.restore(here);
            moved = false;
        }
        if (!enabled(r, a))
            continue;
        DirectedOp op;
        op.cache = a.cache;
        op.kind = a.kind;
        op.addr = blockAddr(a.block);
        op.value = (a.kind == DirectedKind::Write ||
                    a.kind == DirectedKind::UnlockWrite)
                       ? writeValue(depth, a.cache)
                       : 0;
        r.step(op);
        moved = true;
        if (dfs(r, alphabet, depth + 1, res))
            return true;
    }
    return false;
}

namespace
{

/**
 * Erase op @p i, and with it its lock/unlock partner on the same cache
 * and block — removing only half a pair would leave an unlock of a
 * never-locked block, which is a program bug (panic), not a protocol
 * bug.
 */
void
erasePaired(DirectedTrace &t, std::size_t i)
{
    const DirectedOp op = t.ops[i];
    std::size_t partner = t.ops.size();
    if (op.kind == DirectedKind::LockRead) {
        for (std::size_t j = i + 1; j < t.ops.size(); ++j) {
            const DirectedOp &o = t.ops[j];
            if (o.cache == op.cache && o.addr == op.addr &&
                o.kind == DirectedKind::UnlockWrite) {
                partner = j;
                break;
            }
        }
    } else if (op.kind == DirectedKind::UnlockWrite) {
        for (std::size_t j = i; j-- > 0;) {
            const DirectedOp &o = t.ops[j];
            if (o.cache == op.cache && o.addr == op.addr &&
                o.kind == DirectedKind::LockRead) {
                partner = j;
                break;
            }
        }
    }
    if (partner < t.ops.size() && partner != i) {
        t.ops.erase(t.ops.begin() + std::max(i, partner));
        t.ops.erase(t.ops.begin() + std::min(i, partner));
    } else {
        t.ops.erase(t.ops.begin() + i);
    }
}

bool
reproduces(const DirectedTrace &t, ReplayVerdict *v)
{
    try {
        ScopedFatalThrow guard;
        ReplayVerdict rv = replayTrace(t);
        if (rv.clean())
            return false;
        if (v)
            *v = rv;
        return true;
    } catch (const FatalError &) {
        // The shrunk candidate broke a config/usage contract instead of
        // reproducing the violation.
        return false;
    }
}

} // anonymous namespace

void
StateExplorer::minimize(ExploreResult &res) const
{
    DirectedTrace best = res.counterexample;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t i = 0; i < best.ops.size() && !progress; ++i) {
            DirectedTrace cand = best;
            erasePaired(cand, i);
            ReplayVerdict v;
            if (reproduces(cand, &v)) {
                best = std::move(cand);
                res.counterexampleVerdict = v;
                progress = true;
            }
        }
    }
    res.counterexample = std::move(best);
}

ExploreResult
StateExplorer::explore(const std::string &protocol)
{
    ExploreResult res;
    res.protocol = protocol;
    res.bounds = bounds_;
    visited_.clear();
    checkpoints_.resize(bounds_.depth);
    std::vector<AlphaOp> alphabet = alphabetFor(protocol);
    TraceReplayer r(shapeFor(protocol));
    dfs(r, alphabet, 0, res);
    if (res.violationFound) {
        minimize(res);
        res.violation = res.counterexampleVerdict.firstProblem;
    }
    return res;
}

} // namespace mc
} // namespace csync
