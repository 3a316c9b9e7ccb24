/**
 * @file
 * Bounded exhaustive model checker.  The StateExplorer enumerates every
 * interleaving of directed operations (read / write / lock / unlock /
 * evict, per cache, per block) up to a depth bound and judges every
 * reachable quiescent state with the TraceReplayer verdict (value
 * checker + structural invariants + lock-waiter liveness).  The search
 * drives one TraceReplayer per protocol: each node saves a quiescent
 * checkpoint of its state, and each child restores it in place and
 * steps one op, so no state rebuilds a System or replays its prefix.
 * Reached states are deduplicated by architectural digest — the
 * standard stateful-search optimization — so the search collapses to
 * the protocol's actual reachable state graph instead of the full
 * operation tree.  On a violation the failing interleaving is shrunk to
 * a minimal replayable counterexample (by fresh replays).
 */

#ifndef CSYNC_MC_EXPLORER_HH
#define CSYNC_MC_EXPLORER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "system/replay.hh"

namespace csync
{
namespace mc
{

/** Search bounds. */
struct ExploreBounds
{
    unsigned caches = 2;
    unsigned blocks = 1;
    unsigned depth = 4;
    /** Include LockRead/UnlockWrite for protocols with Feature 6 lock
     *  instructions. */
    bool lockOps = true;
    /** Include the Evict displacement op. */
    bool evictOps = true;
    /** Interconnect preset every explored system is built on.  A
     *  clustered preset (clustered_2x1 is the minimal shape: two
     *  single-processor clusters) puts boundary snoop filtering and the
     *  L2 tag directories inside the search — a filter that wrongly
     *  withholds a snoop surfaces as a checker/invariant violation, and
     *  tag residency rides the state digest. */
    std::string topology = "single_bus";

    /** CI bound: 2 caches, 1 block, depth 4 (exhaustive in seconds). */
    static ExploreBounds smoke();

    /** The ISSUE's full bound: 3 caches, 2 blocks, depth 6. */
    static ExploreBounds deep();

    std::string describe() const;
};

/** Result of exploring one protocol. */
struct ExploreResult
{
    std::string protocol;
    ExploreBounds bounds;
    /** Quiescent states judged (tree nodes reached). */
    std::uint64_t statesVisited = 0;
    /** Nodes cut because their digest was already reached at an equal
     *  or shallower depth. */
    std::uint64_t statesDeduped = 0;
    bool violationFound = false;
    /** firstProblem of the minimized counterexample. */
    std::string violation;
    /** Minimized failing interleaving (ops empty when clean). */
    DirectedTrace counterexample;
    ReplayVerdict counterexampleVerdict;

    bool clean() const { return !violationFound; }
};

/**
 * Exhaustive bounded interleaving search over one protocol.
 */
class StateExplorer
{
  public:
    explicit StateExplorer(const ExploreBounds &bounds);

    /** Search @p protocol; stops at the first violation (minimized). */
    ExploreResult explore(const std::string &protocol);

    /** Registry names minus deliberately broken ("broken_*") variants:
     *  the ten shipped protocols. */
    static std::vector<std::string> shippedProtocols();

    /** The block-aligned address of model block @p block. */
    static Addr blockAddr(unsigned block);

    /** The distinct nonzero value written at step @p step by cache
     *  @p cache (fresh per step, so stale data never aliases it). */
    static Word writeValue(unsigned step, unsigned cache);

    /** The shape every system explored for @p protocol is built from
     *  (model geometry, topology, pinned adaptive thresholds). */
    DirectedTrace shapeFor(const std::string &protocol) const;

  private:
    struct AlphaOp
    {
        unsigned cache;
        DirectedKind kind;
        unsigned block;
    };

    std::vector<AlphaOp> alphabetFor(const std::string &protocol) const;
    bool enabled(TraceReplayer &r, const AlphaOp &a) const;
    /** Judge the state @p r holds (reached by @p depth ops), then
     *  search each enabled op from it. */
    bool dfs(TraceReplayer &r, const std::vector<AlphaOp> &alphabet,
             unsigned depth, ExploreResult &res);
    void minimize(ExploreResult &res) const;

    ExploreBounds bounds_;
    /** digest -> shallowest depth at which it was reached. */
    std::unordered_map<std::string, unsigned> visited_;
    /** The state each search depth restores before its next child, one
     *  per depth; kept across explore() calls so its buffers are
     *  reused. */
    std::vector<TraceReplayer::Checkpoint> checkpoints_;
};

} // namespace mc
} // namespace csync

#endif // CSYNC_MC_EXPLORER_HH
