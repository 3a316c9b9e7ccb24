/**
 * @file
 * Directed-trace record/replay: the wire format between the model
 * checker (`src/mc/`), the `csync-mc` CLI, and the tests.  A
 * DirectedTrace is a system shape plus an ordered list of per-cache
 * operations; a TraceReplayer drives the ops one at a time through a
 * Scenario (whose bounded settle makes ablated configurations that
 * livelock surface as a "stalled" verdict instead of hanging), and
 * renders a ReplayVerdict from the value checker, the structural
 * invariant scan, and a lock-waiter liveness check.  Any trace the
 * explorer or fuzzer flags can be serialized to JSON and replayed
 * bit-identically later.
 */

#ifndef CSYNC_SYSTEM_REPLAY_HH
#define CSYNC_SYSTEM_REPLAY_HH

#include <string>
#include <vector>

#include "harness/json.hh"
#include "system/scenario.hh"

namespace csync
{

/** Operation vocabulary of a directed trace. */
enum class DirectedKind : std::uint8_t
{
    Read,
    Write,
    Rmw,
    LockRead,
    UnlockWrite,
    WriteNoFetch,
    /**
     * Displace the target block through the cache's genuine eviction
     * path (including the locked-block purge of Section E.3) by reading
     * a filler block that maps to the same set.  Requires a
     * direct-mapped shape (ways == 1).
     */
    Evict,
};

/** Wire name of a directed kind ("read", "lock_read", "evict", ...). */
const char *directedKindName(DirectedKind k);

/** Parse a wire name; returns false (out untouched) if unknown. */
bool directedKindFromName(const std::string &name, DirectedKind *out);

/** One step of a directed trace. */
struct DirectedOp
{
    unsigned cache = 0;
    DirectedKind kind = DirectedKind::Read;
    Addr addr = 0;
    Word value = 0;
};

/** A replayable trace: system shape + operation sequence. */
struct DirectedTrace
{
    std::string protocol = "bitar";
    unsigned processors = 2;
    unsigned blockWords = 4;
    unsigned frames = 4;
    /** Direct-mapped by default so Evict has a one-read displacement. */
    unsigned ways = 1;
    bool useBusyWaitRegister = true;
    bool busyWaitPriority = true;
    /** Adaptive-protocol tuning (defaults match SystemConfig; only
     *  serialized when non-default so existing traces are untouched). */
    unsigned adaptiveBits = 2;
    unsigned adaptiveInvalidateThreshold = 2;
    unsigned adaptiveUpdateThreshold = 2;
    /** Interconnect preset the trace runs on (TopologyConfig::names();
     *  only serialized when non-default so existing traces are
     *  untouched).  Clustered presets put the snoop filters and L2 tag
     *  directories under the model checker's interleaving search. */
    std::string topology = "single_bus";
    std::vector<DirectedOp> ops;

    /** The SystemConfig this trace runs against. */
    SystemConfig toConfig() const;
};

/** What one replayed step did. */
struct OpOutcome
{
    /** False: the cache was busy (or the replay had stalled) and the op
     *  was skipped. */
    bool issued = false;
    bool completed = false;
    /** A lock op is busy-waiting; it may complete on a later step. */
    bool pending = false;
    Word value = 0;
};

/** End-of-replay verdict. */
struct ReplayVerdict
{
    std::uint64_t checkerViolations = 0;
    unsigned invariantViolations = 0;
    unsigned skippedOps = 0;
    /** The event queue failed to drain within the settle budget (e.g.
     *  bus-retry livelock under busy-wait-register ablation). */
    bool stalled = false;
    /** Lost wakeup: a busy-wait register is armed for a block whose lock
     *  nobody holds any more. */
    bool waiterStuck = false;
    std::string firstProblem;

    bool
    clean() const
    {
        return checkerViolations == 0 && invariantViolations == 0 &&
               !stalled && !waiterStuck;
    }

    /** One-line summary ("clean" or the failure classes). */
    std::string describe() const;
};

/**
 * Replays DirectedOps through a Scenario, one at a time: translates each
 * op, filters lock-discipline violations, and judges the result.
 */
class TraceReplayer
{
  public:
    /** Build a fresh system of @p shape; @p shape.ops is ignored (feed
     *  ops through step()). */
    explicit TraceReplayer(const DirectedTrace &shape);

    System &system() { return scenario_.system(); }

    /** Everything fed to step() so far, as a replayable trace. */
    const DirectedTrace &recorded() const { return recorded_; }

    /** Issue one op and settle.  Skips (issued=false) if the cache is
     *  still busy-waiting on a lock, the replay has stalled, or the op
     *  breaks lock discipline (unlock of an unheld block / re-lock of a
     *  held one — program bugs, not protocol bugs). */
    OpOutcome step(const DirectedOp &op);

    /** True while @p cache has an incomplete (busy-waiting) op. */
    bool busy(unsigned cache) const { return scenario_.busy(cache); }

    /** Did an earlier pending op on @p cache complete? */
    bool pendingCompleted(unsigned cache, Word *value = nullptr) const;

    /** Settle and evaluate checker + invariants + waiter liveness. */
    ReplayVerdict verdict();

    /** The conflicting filler block Evict reads to displace @p addr. */
    Addr fillerAddr(Addr block_addr) const;

    /**
     * Digest of the quiesced architectural state: frames, busy-wait
     * registers, purged-lock notes, protocol-internal snapshots, memory
     * data + lock tags + source bits, and the checker's serialization
     * model, over every block the trace has touched.  Two replays with
     * equal digests are interchangeable for further exploration.
     */
    std::string digest();

  private:
    void noteBlock(Addr block_addr);

    DirectedTrace recorded_;
    Scenario scenario_;
    /** Block-aligned addresses the trace has touched (sorted). */
    std::vector<Addr> blocks_;
    unsigned skipped_ = 0;
};

/** Run @p trace through a fresh system and return the final verdict. */
ReplayVerdict replayTrace(const DirectedTrace &trace);

/** @name JSON wire format (see EXPERIMENTS.md, "csync-mc output") */
/// @{
harness::Json traceToJson(const DirectedTrace &t);
bool traceFromJson(const harness::Json &j, DirectedTrace *out,
                   std::string *err);
harness::Json verdictToJson(const ReplayVerdict &v);
/// @}

} // namespace csync

#endif // CSYNC_SYSTEM_REPLAY_HH
