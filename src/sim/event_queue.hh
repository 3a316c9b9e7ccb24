/**
 * @file
 * Discrete-event simulation kernel.  Events are callbacks scheduled at a
 * tick with an intra-tick priority; ties are broken FIFO so runs are fully
 * deterministic for a given seed and configuration.
 *
 * The implementation is allocation-light: callbacks live in pooled event
 * nodes with inline small-buffer storage (no per-event std::function heap
 * allocation), and the ready heap orders plain 24-byte keys so sifting
 * never moves a callback.  Nodes are recycled through a free list, so a
 * steady-state simulation schedules millions of events with a handful of
 * chunk allocations total.
 */

#ifndef CSYNC_SIM_EVENT_QUEUE_HH
#define CSYNC_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace csync
{

/**
 * Intra-tick scheduling priorities.  Lower value runs first.  The ordering
 * matters: bus arbitration for a cycle must observe every request posted
 * for that cycle, so requests post at Default and the arbiter runs at
 * Arbitrate.
 */
enum class EventPri : int
{
    Default = 0,
    Arbitrate = 10,
    Stats = 20
};

/**
 * Move-only type-erased callable with inline small-buffer storage.
 * Callables up to inlineBytes that are nothrow-move-constructible are
 * stored in place; anything larger falls back to a single heap box.
 * This replaces std::function in the event hot path, where the 16-byte
 * inline capacity of the standard library forced a heap allocation for
 * nearly every capturing lambda the simulator schedules.
 */
class EventCallback
{
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename F>
    struct Inline
    {
        static void invoke(void *p) { (*static_cast<F *>(p))(); }

        static void
        relocate(void *s, void *d)
        {
            ::new (d) F(std::move(*static_cast<F *>(s)));
            static_cast<F *>(s)->~F();
        }

        static void destroy(void *p) { static_cast<F *>(p)->~F(); }

        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename F>
    struct Boxed
    {
        static void invoke(void *p) { (**static_cast<F **>(p))(); }

        static void
        relocate(void *s, void *d)
        {
            *static_cast<F **>(d) = *static_cast<F **>(s);
        }

        static void destroy(void *p) { delete *static_cast<F **>(p); }

        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

  public:
    /** Inline capture capacity; sized so a pooled event node including
     *  bookkeeping fills two cache lines. */
    static constexpr std::size_t inlineBytes = 104;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= inlineBytes &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &Inline<D>::ops;
        } else {
            *reinterpret_cast<D **>(buf_) = new D(std::forward<F>(f));
            ops_ = &Boxed<D>::ops;
        }
    }

    EventCallback(EventCallback &&o) noexcept : ops_(o.ops_)
    {
        if (ops_) {
            ops_->relocate(o.buf_, buf_);
            o.ops_ = nullptr;
        }
    }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_) {
                ops_->relocate(o.buf_, buf_);
                o.ops_ = nullptr;
            }
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** Destroy the held callable (if any) and become empty. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->invoke(buf_); }

  private:
    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * The event queue: a binary heap of (tick, priority, sequence) keys over
 * pooled callback nodes, plus the current simulated time.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Callback to run.
     * @param pri Intra-tick priority.
     */
    void
    schedule(Tick when, Callback cb, EventPri pri = EventPri::Default)
    {
        sim_assert(when >= now_, "scheduling into the past: %llu < %llu",
                   (unsigned long long)when, (unsigned long long)now_);
        Node *n = allocNode();
        n->cb = std::move(cb);
        heap_.push_back(
            HeapEntry{when, (std::uint64_t(pri) << priShift) | seq_++, n});
        siftUp(heap_.size() - 1);
    }

    /** Schedule a callback @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb, EventPri pri = EventPri::Default)
    {
        schedule(now_ + delta, std::move(cb), pri);
    }

    /** True if no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed since construction/reset (diagnostics:
     *  distinguishes a spinning livelock from a drained deadlock). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events until the queue drains or simulated time would exceed
     * @p until.  Events scheduled exactly at @p until still run.
     *
     * @return Number of events executed.
     */
    std::uint64_t run(Tick until = maxTick);

    /**
     * Run at most @p max_events events (for watchdog-style tests).
     * @return Number of events executed.
     */
    std::uint64_t runSteps(std::uint64_t max_events);

    /**
     * Run at most @p max_events events whose tick is <= @p until.  The
     * bounded primitive of the sharded parallel engine and of the
     * directed driver's settle: unlike run(), now() is never advanced
     * past the last executed event, so a shard's clock always names
     * real work — the window bookkeeping lives in the scheduler, not in
     * the queue.
     *
     * @return Number of events executed; a return < @p max_events
     *         means the queue holds nothing at or before @p until.
     */
    std::uint64_t runBounded(Tick until, std::uint64_t max_events);

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? maxTick : heap_[0].when;
    }

    /** Discard all pending events and reset time to zero. */
    void reset();

  private:
    /** A pooled event: the callback plus the free-list link. */
    struct Node
    {
        EventCallback cb;
        Node *nextFree = nullptr;
    };

    /** Intra-tick priority and FIFO sequence packed into one key; the
     *  sequence counter would need two thousand years at a billion
     *  events per second to reach the priority bits. */
    static constexpr unsigned priShift = 56;

    struct HeapEntry
    {
        Tick when;
        std::uint64_t prioSeq;
        Node *node;

        bool
        before(const HeapEntry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return prioSeq < o.prioSeq;
        }
    };

    Node *allocNode();

    void
    freeNode(Node *n)
    {
        n->nextFree = freeList_;
        freeList_ = n;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Pop the earliest event, returning its callback ready to run. */
    EventCallback popTop();

    std::vector<HeapEntry> heap_;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *freeList_ = nullptr;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace csync

#endif // CSYNC_SIM_EVENT_QUEUE_HH
