/**
 * @file
 * Tests for the bounded exhaustive model checker: all shipped protocols
 * must be clean at the smoke bound, and the deliberately broken variant
 * (dropped invalidation) must be found with a minimal, replayable
 * counterexample.  The checkpoint tests hold the explorer's incremental
 * search to a fresh replay of every prefix it reaches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "coherence/protocol.hh"
#include "mc/explorer.hh"
#include "mc/fuzzer.hh"
#include "system/replay.hh"

using namespace csync;
using namespace csync::mc;

TEST(Explorer, ShippedProtocolsExcludeBrokenVariants)
{
    std::vector<std::string> names = StateExplorer::shippedProtocols();
    EXPECT_EQ(names.size(), 12u);
    for (const std::string &n : names)
        EXPECT_NE(n.rfind("broken_", 0), 0u) << n;
    EXPECT_NE(std::find(names.begin(), names.end(), "bitar"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "adaptive_du"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "adaptive_bi"),
              names.end());
    // The broken variants are registered, just filtered from "shipped".
    std::vector<std::string> all = ProtocolRegistry::names();
    EXPECT_NE(std::find(all.begin(), all.end(), "broken_noinval"),
              all.end());
    EXPECT_NE(std::find(all.begin(), all.end(), "broken_adaptive"),
              all.end());
}

TEST(Explorer, AllShippedProtocolsCleanAtSmokeBound)
{
    for (const std::string &name : StateExplorer::shippedProtocols()) {
        StateExplorer ex(ExploreBounds::smoke());
        ExploreResult res = ex.explore(name);
        EXPECT_TRUE(res.clean()) << name << ": " << res.violation;
        EXPECT_GT(res.statesVisited, 0u) << name;
    }
}

TEST(Explorer, DigestDedupPrunesSearch)
{
    StateExplorer ex(ExploreBounds::smoke());
    ExploreResult res = ex.explore("bitar");
    // Distinct interleavings reconverge on identical architectural
    // states; the dedup must fire or the search is the full op tree.
    EXPECT_GT(res.statesDeduped, 0u);
}

TEST(Explorer, FindsDroppedInvalidationWithinSmokeBound)
{
    StateExplorer ex(ExploreBounds::smoke());
    ExploreResult res = ex.explore("broken_noinval");
    ASSERT_TRUE(res.violationFound);
    EXPECT_FALSE(res.violation.empty());

    // Minimal: two concurrent writers expose the dropped invalidation;
    // the shrinker must get at or below that.
    ASSERT_FALSE(res.counterexample.ops.empty());
    EXPECT_LE(res.counterexample.ops.size(), 2u);

    // The counterexample must replay to the same verdict from scratch.
    ReplayVerdict again = replayTrace(res.counterexample);
    EXPECT_FALSE(again.clean());
    EXPECT_EQ(again.firstProblem, res.counterexampleVerdict.firstProblem);
}

TEST(Explorer, FindsStaleAdaptiveUpdateWithinSmokeBound)
{
    // broken_adaptive drops the update broadcast when a block flips to
    // invalidate mode without actually invalidating the sharers: a
    // remote cache keeps serving the stale word.  The explorer pins the
    // adaptive thresholds to 1 so the flip is reachable at depth 4.
    StateExplorer ex(ExploreBounds::smoke());
    ExploreResult res = ex.explore("broken_adaptive");
    ASSERT_TRUE(res.violationFound);
    EXPECT_FALSE(res.violation.empty());

    ASSERT_FALSE(res.counterexample.ops.empty());
    EXPECT_LE(res.counterexample.ops.size(), 4u);

    // The counterexample must replay to the same verdict from scratch.
    ReplayVerdict again = replayTrace(res.counterexample);
    EXPECT_FALSE(again.clean());
    EXPECT_EQ(again.firstProblem, res.counterexampleVerdict.firstProblem);
}

TEST(Fuzzer, DefaultPairsDiffAdaptiveHybridsAgainstBothParents)
{
    // A mode flip must never change what the memory system returns, so
    // the adaptive hybrids are fuzzed against their parent protocols in
    // addition to the usual everything-vs-bitar pairs.
    auto has = [](const std::vector<FuzzPair> &pairs, const std::string &a,
                  const std::string &b) {
        return std::any_of(pairs.begin(), pairs.end(),
                           [&](const FuzzPair &p) {
                               return p.a == a && p.b == b &&
                                      !p.ablateBusyWait && !p.ablatePriority;
                           });
    };
    std::vector<FuzzPair> pairs = DifferentialFuzzer::defaultPairs();
    EXPECT_TRUE(has(pairs, "dragon", "adaptive_du"));
    EXPECT_TRUE(has(pairs, "berkeley", "adaptive_bi"));
}

TEST(Fuzzer, AdaptiveHybridsMatchTheirParentsOverSeededTraces)
{
    DifferentialFuzzer::Options opts;
    DifferentialFuzzer fuzzer(opts);
    for (const auto &[a, b] : {std::pair<std::string, std::string>{
                                   "dragon", "adaptive_du"},
                               {"berkeley", "adaptive_bi"}}) {
        FuzzPair pair;
        pair.a = a;
        pair.b = b;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            FuzzReport rep = fuzzer.runPair(seed, pair);
            EXPECT_TRUE(rep.clean())
                << pair.label() << " seed " << seed << ": " << rep.detail;
            EXPECT_FALSE(rep.diverged)
                << pair.label() << " seed " << seed << ": "
                << rep.divergence;
        }
    }
}

TEST(Explorer, CounterexampleSurvivesJsonRoundTrip)
{
    StateExplorer ex(ExploreBounds::smoke());
    ExploreResult res = ex.explore("broken_noinval");
    ASSERT_TRUE(res.violationFound);

    harness::Json j = traceToJson(res.counterexample);
    DirectedTrace back;
    std::string err;
    ASSERT_TRUE(traceFromJson(j, &back, &err)) << err;
    EXPECT_EQ(traceToJson(back).dump(2), j.dump(2));
    EXPECT_FALSE(replayTrace(back).clean());
}

TEST(Explorer, BoundsDescribeAndScale)
{
    EXPECT_EQ(ExploreBounds::smoke().depth, 4u);
    EXPECT_EQ(ExploreBounds::deep().caches, 3u);
    EXPECT_FALSE(ExploreBounds::smoke().describe().empty());

    // Depth 2 visits strictly fewer states than the smoke bound.
    ExploreBounds shallow = ExploreBounds::smoke();
    shallow.depth = 2;
    StateExplorer exShallow(shallow);
    StateExplorer exSmoke(ExploreBounds::smoke());
    EXPECT_LT(exShallow.explore("bitar").statesVisited,
              exSmoke.explore("bitar").statesVisited);
}

TEST(Explorer, WriteValuesAreFreshPerStepAndCache)
{
    // The dedup soundness argument needs distinct nonzero values.
    std::vector<Word> seen;
    for (unsigned step = 0; step < 6; ++step) {
        for (unsigned cache = 0; cache < 3; ++cache) {
            Word v = StateExplorer::writeValue(step, cache);
            EXPECT_NE(v, 0u);
            EXPECT_EQ(std::count(seen.begin(), seen.end(), v), 0);
            seen.push_back(v);
        }
    }
}

TEST(Replayer, DigestIsDeterministicAndStateSensitive)
{
    DirectedTrace shape;
    shape.protocol = "bitar";

    TraceReplayer a(shape);
    TraceReplayer b(shape);
    DirectedOp w{0, DirectedKind::Write, 0x1000, 42};
    a.step(w);
    b.step(w);
    EXPECT_EQ(a.digest(), b.digest());

    DirectedOp w2{1, DirectedKind::Write, 0x1000, 43};
    b.step(w2);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Replayer, LockDisciplineGuardSkipsProgramBugs)
{
    DirectedTrace shape;
    shape.protocol = "bitar";

    TraceReplayer r(shape);
    // Unlock of a block nobody holds: skipped, not a panic.
    OpOutcome o = r.step({0, DirectedKind::UnlockWrite, 0x1000, 1});
    EXPECT_FALSE(o.issued);

    EXPECT_TRUE(r.step({0, DirectedKind::LockRead, 0x1000, 0}).issued);
    // Re-lock by the holder: also a program bug, also skipped.
    EXPECT_FALSE(r.step({0, DirectedKind::LockRead, 0x1000, 0}).issued);
    EXPECT_TRUE(r.step({0, DirectedKind::UnlockWrite, 0x1000, 7}).issued);

    ReplayVerdict v = r.verdict();
    EXPECT_EQ(v.skippedOps, 2u);
    EXPECT_EQ(v.checkerViolations, 0u);
}

TEST(Replayer, PurgedLockRefetchReclaimsMemoryTag)
{
    // The depth-4 sequence the explorer originally found: lock, purge
    // via eviction, refetch with a *plain* read, unlock.  The refetch
    // must reclaim the lock from its memory tag (Section E.3) or the
    // unlock faults and the tag wedges every other cache.
    DirectedTrace t;
    t.protocol = "bitar";
    t.ops = {
        {0, DirectedKind::LockRead, 0x1000, 0},
        {0, DirectedKind::Evict, 0x1000, 0},
        {0, DirectedKind::Read, 0x1000, 0},
        {0, DirectedKind::UnlockWrite, 0x1000, 9},
    };
    ReplayVerdict v = replayTrace(t);
    EXPECT_TRUE(v.clean()) << v.describe();
    EXPECT_EQ(v.skippedOps, 0u);
}

namespace
{

/** Everything a replayed state exposes: the digest, the verdict, the
 *  clock and the stats document. */
struct Observed
{
    std::string digest;
    ReplayVerdict verdict;
    Tick now = 0;
    std::string stats;
};

Observed
observe(TraceReplayer &r)
{
    Observed o;
    o.verdict = r.verdict();
    o.digest = r.digest();
    o.now = r.system().now();
    std::ostringstream os;
    r.system().dumpStatsJson(os);
    o.stats = os.str();
    return o;
}

void
expectSame(const Observed &inc, const Observed &fresh,
           const DirectedTrace &path)
{
    std::string where = traceToJson(path).dump(0);
    EXPECT_EQ(inc.digest, fresh.digest) << where;
    EXPECT_EQ(inc.verdict.describe(), fresh.verdict.describe()) << where;
    EXPECT_EQ(inc.verdict.firstProblem, fresh.verdict.firstProblem)
        << where;
    EXPECT_EQ(inc.verdict.skippedOps, fresh.verdict.skippedOps) << where;
    EXPECT_EQ(inc.now, fresh.now) << where;
    EXPECT_EQ(inc.stats, fresh.stats) << where;
}

/**
 * The explorer's search with a cross-check on every edge: restoring the
 * parent's checkpoint and stepping one op must leave the replayer
 * exactly where a fresh replay of the whole prefix does.  Mirrors
 * StateExplorer's alphabet, enabling rules and digest dedup.
 */
class EdgeChecker
{
  public:
    EdgeChecker(const DirectedTrace &shape, unsigned depth)
        : shape_(shape), depth_(depth), checkpoints_(depth)
    {
        locks_ = makeProtocol(shape.protocol)->supportsLockOps();
    }

    /** Search from a fresh replayer; returns the edges checked. */
    unsigned
    run()
    {
        TraceReplayer r(shape_);
        visit(r, 0);
        return edges_;
    }

  private:
    void
    visit(TraceReplayer &r, unsigned depth)
    {
        if (!r.verdict().clean() || depth >= depth_)
            return;
        auto it = visited_.find(r.digest());
        if (it != visited_.end() && it->second <= depth)
            return;
        visited_[r.digest()] = depth;

        TraceReplayer::Checkpoint &here = checkpoints_[depth];
        r.checkpoint(here);
        const DirectedKind kinds[] = {
            DirectedKind::Read, DirectedKind::Write, DirectedKind::LockRead,
            DirectedKind::UnlockWrite, DirectedKind::Evict};
        for (unsigned c = 0; c < shape_.processors; ++c) {
            for (DirectedKind k : kinds) {
                r.restore(here);
                DirectedOp op{c, k, StateExplorer::blockAddr(0), 0};
                if (!enabled(r, op))
                    continue;
                if (k == DirectedKind::Write ||
                    k == DirectedKind::UnlockWrite)
                    op.value = StateExplorer::writeValue(depth, c);
                r.step(op);

                TraceReplayer fresh(shape_);
                for (const DirectedOp &o : r.recorded().ops)
                    fresh.step(o);
                Observed want = observe(fresh);
                expectSame(observe(r), want, r.recorded());
                EXPECT_EQ(replayTrace(r.recorded()).firstProblem,
                          want.verdict.firstProblem);
                ++edges_;
                visit(r, depth + 1);
            }
        }
    }

    bool
    enabled(TraceReplayer &r, const DirectedOp &op) const
    {
        if (r.busy(op.cache))
            return false;
        NodeId holder = r.system().checker().lockHolder(op.addr);
        switch (op.kind) {
          case DirectedKind::LockRead:
            return locks_ && holder != NodeId(op.cache);
          case DirectedKind::UnlockWrite:
            return locks_ && holder == NodeId(op.cache);
          case DirectedKind::Evict:
            return isValid(r.system().cache(op.cache).stateOf(op.addr));
          default:
            return true;
        }
    }

    DirectedTrace shape_;
    unsigned depth_;
    bool locks_ = false;
    unsigned edges_ = 0;
    std::vector<TraceReplayer::Checkpoint> checkpoints_;
    std::unordered_map<std::string, unsigned> visited_;
};

} // anonymous namespace

TEST(Checkpoint, RestoreAndStepMatchesFreshReplayOnEveryEdge)
{
    std::vector<std::string> protocols = StateExplorer::shippedProtocols();
    protocols.push_back("broken_noinval");
    protocols.push_back("broken_adaptive");
    for (const char *topology : {"single_bus", "clustered_2x1"}) {
        ExploreBounds bounds = ExploreBounds::smoke();
        bounds.topology = topology;
        StateExplorer ex(bounds);
        for (const std::string &name : protocols) {
            SCOPED_TRACE(name + " on " + topology);
            EdgeChecker check(ex.shapeFor(name), bounds.depth);
            EXPECT_GT(check.run(), 10u);
        }
    }
}

TEST(Checkpoint, RestoreRewindsAStalledReplay)
{
    // Without the busy-wait register a contended lock retries on the
    // bus forever: the settle stalls with events still queued.  Restore
    // must drop them and rewind to the clean state.
    DirectedTrace shape;
    shape.protocol = "bitar";
    shape.useBusyWaitRegister = false;
    TraceReplayer r(shape);
    r.step({0, DirectedKind::LockRead, 0x1000, 0});
    ASSERT_TRUE(r.verdict().clean());
    TraceReplayer::Checkpoint cp;
    r.checkpoint(cp);
    Observed before = observe(r);

    r.step({1, DirectedKind::LockRead, 0x1000, 0});
    ASSERT_TRUE(r.verdict().stalled);
    ASSERT_FALSE(r.system().eventq().empty());

    r.restore(cp);
    EXPECT_TRUE(r.system().eventq().empty());
    expectSame(observe(r), before, r.recorded());
    EXPECT_EQ(r.recorded().ops.size(), 1u);
}

TEST(CheckpointDeathTest, NonQuiescentSystemPanics)
{
    DirectedTrace shape;
    shape.protocol = "bitar";
    Scenario sc(shape.toConfig());
    MemOp op;
    op.type = OpType::Write;
    op.addr = 0x1000;
    op.value = 5;
    // Issued but not settled: the bus request is still queued.
    sc.issue(0, op);
    System::Checkpoint cp;
    EXPECT_DEATH(sc.system().checkpoint(cp), "pending events");
}

TEST(Checkpoint, RestoreRewindsTheArbitrationHistory)
{
    // Directed replays issue one op at a time, so the round-robin
    // policy's last winner never decides a grant there.  Two requests
    // posted together make it decide: after a restore they must be
    // served in the order a fresh machine serves them.
    DirectedTrace shape;
    shape.protocol = "bitar";
    MemOp read;
    read.type = OpType::Read;
    auto contend = [&](Scenario &sc) {
        read.addr = 0x2000;
        sc.issue(0, read);
        sc.issue(1, read);
        sc.settle();
        std::ostringstream os;
        sc.system().dumpStatsJson(os);
        return std::to_string(sc.system().bus().lastMsg().requester) +
               os.str();
    };

    Scenario fresh(shape.toConfig());
    std::string want = contend(fresh);

    Scenario sc(shape.toConfig());
    Scenario::Checkpoint cp;
    sc.checkpoint(cp);
    read.addr = 0x1000;
    sc.run(0, read); // cache 0 becomes the last winner
    sc.restore(cp);
    EXPECT_EQ(contend(sc), want);
}
