/**
 * @file
 * The directed driver: issue individual operations on specific caches
 * of a System and settle the event loop between them.  It serves the
 * Figure 1-9 benches (which print the simulator's own narration, so the
 * narration shown is the narration the simulator actually executed),
 * the Table 1 and Figure 10 probes, the model checker's TraceReplayer
 * and the directed unit tests.  Settling is bounded, so a configuration
 * that livelocks (e.g. lock contention with the busy-wait register
 * ablated) reports a stall instead of spinning forever.
 */

#ifndef CSYNC_SYSTEM_SCENARIO_HH
#define CSYNC_SYSTEM_SCENARIO_HH

#include <memory>
#include <string>
#include <vector>

#include "system/system.hh"

namespace csync
{

/**
 * A System plus per-processor issue slots for step-by-step directed runs.
 */
class Scenario
{
  public:
    /** Event-queue budget per settle, in ticks (generous: single ops
     *  complete in tens of ticks; only livelocks exhaust it). */
    static constexpr Tick kSettleBudget = 100000;

    /**
     * Build the System @p cfg describes.  With @p narrate, every trace
     * flag is enabled and the simulator's trace lines, plus our own
     * notes, are captured into log() until the scenario is destroyed.
     */
    explicit Scenario(const SystemConfig &cfg, bool narrate = false);
    ~Scenario();

    System &system() { return *sys_; }
    Cache &cache(unsigned p) { return sys_->cache(p); }

    /**
     * Issue @p op on processor @p p and settle; fatal if the op does
     * not complete (use tryRun for busy-wait scenarios).
     */
    AccessResult run(unsigned p, const MemOp &op);

    /**
     * Issue @p op on processor @p p and settle.
     * @return true if the op completed (result in *out); false if it is
     *         still pending (busy-waiting on a lock) or the settle
     *         stalled.
     */
    bool tryRun(unsigned p, const MemOp &op, AccessResult *out = nullptr);

    /**
     * Issue @p op on processor @p p without settling, through its cache
     * port on the switch that homes the address (the way a Processor
     * would; port 0 on the single bus).  For tests that step the clock
     * themselves.
     */
    void issue(unsigned p, const MemOp &op);

    /** True while processor @p p has an incomplete op. */
    bool busy(unsigned p) const;

    /** Check whether an earlier pending op on @p p has completed. */
    bool pendingCompleted(unsigned p, AccessResult *out = nullptr) const;

    /**
     * Run the event loop until it drains, for at most kSettleBudget
     * ticks; if it does not drain, stalled() is true from then on.  The
     * clock stops at the last executed event.
     */
    void settle();

    /** Has any settle run out of budget? */
    bool stalled() const { return stalled_; }

    /** Cache state of processor @p p for @p addr. */
    State state(unsigned p, Addr addr) { return cache(p).stateOf(addr); }

    /** Captured narration (empty unless narrating). */
    const std::vector<std::string> &log() const { return log_; }
    void clearLog() { log_.clear(); }

    /** Insert a narration line of our own (ignored unless narrating). */
    void note(const std::string &line);

  private:
    struct Slot
    {
        bool issued = false;
        bool completed = false;
        AccessResult result;
    };

  public:
    /** A settled scenario: the System's checkpoint plus the issue slots
     *  and the stall flag (narration is not saved). */
    struct Checkpoint
    {
        System::Checkpoint system;
        std::vector<Slot> slots;
        bool stalled = false;
    };

    /** Save the scenario; panics unless its event queue is empty. */
    void checkpoint(Checkpoint &out) const;

    /** Restore in place: the slots the caches' completion callbacks
     *  point at are the same objects afterwards. */
    void restore(const Checkpoint &cp);

  private:
    std::unique_ptr<System> sys_;
    std::vector<Slot> slots_;
    std::vector<std::string> log_;
    bool narrate_;
    bool stalled_ = false;
};

} // namespace csync

#endif // CSYNC_SYSTEM_SCENARIO_HH
