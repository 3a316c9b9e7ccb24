/**
 * @file
 * Windowed parallel discrete-event engine.  A simulation is split into
 * shards — one event queue plus the objects bound to it — and the shards
 * run on worker threads in lockstep *windows* of simulated time.  Within
 * a window each shard executes only its own events.
 *
 * Shards are disjoint: the domain partition (system/domain.hh) shards a
 * run only when its domains provably never exchange events, so no event
 * ever crosses a shard boundary and there is no channel between shards.
 * A feature that couples domains must first change that proof, and add
 * the channel it needs along with it.
 *
 * The shards need no synchronization with each other, yet they still
 * meet at a barrier after every window: that is where the coordinator
 * aggregates progress (termination, retirement for the forward-progress
 * watchdog, the cooperative abort flag) and checks maxTicks, so every
 * one of those stops lands on a window edge, a deterministic tick
 * independent of worker timing.
 *
 * The scheduler is model-agnostic: a shard is an EventQueue plus
 * callbacks (done / retired), so it is equally the engine behind
 * System's domain-sharded runs and the unit tests' synthetic shards.
 */

#ifndef CSYNC_SIM_PARALLEL_HH
#define CSYNC_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace csync
{

/**
 * Runs a set of disjoint shards in windows on a worker pool.
 *
 * Shards are assigned to workers round-robin; each worker executes its
 * shards' events up to the window horizon, then all threads meet at a
 * barrier where the coordinator aggregates progress (termination,
 * retirement for the forward-progress watchdog, the cooperative abort
 * flag) and opens the next window.
 */
class ParallelScheduler
{
  public:
    /** One shard: a queue plus its model callbacks (both callbacks run
     *  on the shard's worker thread, never concurrently with events). */
    struct Shard
    {
        EventQueue *eq = nullptr;
        /** All of this shard's workloads have finished. */
        std::function<bool()> done;
        /** Monotonic retired-operation count (progress metric). */
        std::function<double()> retired;
    };

    struct Options
    {
        /** Worker threads (clamped to the shard count, min 1). */
        unsigned threads = 2;
        /** Window width in ticks (min 1). */
        Tick window = 4096;
        /** Stop once the horizon reaches this tick. */
        Tick maxTicks = maxTick;
        /** Cooperative abort, checked every event batch and window. */
        const std::atomic<bool> *abort = nullptr;
        /**
         * Barrier hook: called once per window with the window-end tick
         * and the total retired count across ALL shards (the watchdog
         * must see every shard's progress, not just shard 0's).
         * Returning true stops the run.
         */
        std::function<bool(Tick now, double retired)> onWindow;
    };

    /** Why and where the run stopped. */
    struct Result
    {
        /** Every shard is done and every queue drained. */
        bool completed = false;
        /** Queues drained with shards unfinished — the parallel
         *  engine's deadlock signal. */
        bool drained = false;
        /** The onWindow hook stopped the run (watchdog trip). */
        bool stoppedByHook = false;
        /** The abort flag stopped the run. */
        bool aborted = false;
        /** The horizon reached maxTicks with work still pending. */
        bool hitMaxTicks = false;
        /** Max over shards of the last executed event's tick. */
        Tick finalTick = 0;
        /** Total retired count at the end. */
        double retired = 0;
    };

    ParallelScheduler(std::vector<Shard> shards, const Options &opts);
    ~ParallelScheduler();

    ParallelScheduler(const ParallelScheduler &) = delete;
    ParallelScheduler &operator=(const ParallelScheduler &) = delete;

    /** Run to completion/stop; joins all workers before returning.
     *  Model exceptions (FatalError from a shard's event) rethrow on
     *  the calling thread after the pool is quiesced. */
    Result run();

  private:
    void workerMain(unsigned worker);
    void runShardWindow(unsigned shard);
    void shutdownWorkers();

    std::vector<Shard> shards_;
    Options opts_;
    unsigned numWorkers_;

    /** @name Barrier state (all guarded by mu_) */
    /// @{
    std::mutex mu_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::uint64_t generation_ = 0;
    unsigned running_ = 0;
    bool stopWorkers_ = false;
    /// @}

    /** Inclusive end of the window being executed; written by the
     *  coordinator before releasing workers, read-only during a window.
     *  Between windows the coordinator is the only active thread, so it
     *  reads shard queue state (now / pending / done / retired)
     *  directly — the barrier mutex orders those reads against the
     *  workers' writes. */
    Tick windowEnd_ = 0;

    /** First model exception from any worker (guarded by mu_). */
    std::exception_ptr firstError_;

    std::vector<std::thread> threads_;
};

} // namespace csync

#endif // CSYNC_SIM_PARALLEL_HH
