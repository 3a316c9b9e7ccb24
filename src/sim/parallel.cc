#include "sim/parallel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace csync
{

Tick
conservativeLookahead(const BusTiming &t)
{
    // The fastest thing that can cross a domain boundary is a one-cycle
    // signal; a full transaction additionally pays arbitration plus the
    // address phase.  Whichever is smaller bounds how soon activity in
    // one domain can be observed in another.
    Tick fastest = std::min(t.signalCycles, t.arbCycles + t.addrCycles);
    return std::max<Tick>(Tick(1), fastest);
}

SpscMailbox::SpscMailbox(std::size_t capacity)
    : ring_(capacity ? capacity : 1), capacity_(capacity ? capacity : 1)
{
}

void
SpscMailbox::push(CrossEvent ev)
{
    if (spilling_) {
        std::lock_guard<std::mutex> g(spillMu_);
        // Re-arm the ring only once *everything* has drained; while any
        // older entry is still in flight a ring push would overtake the
        // spill list at the next drain.
        if (!spill_.empty() ||
            tail_.load(std::memory_order_relaxed) !=
                head_.load(std::memory_order_acquire)) {
            spill_.push_back(std::move(ev));
            return;
        }
        spilling_ = false;
    }
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head < capacity_) {
        ring_[tail % capacity_] = std::move(ev);
        tail_.store(tail + 1, std::memory_order_release);
        return;
    }
    spilling_ = true;
    std::lock_guard<std::mutex> g(spillMu_);
    spill_.push_back(std::move(ev));
}

void
SpscMailbox::drainTo(std::vector<CrossEvent> *out)
{
    // Snapshot tail_ under spillMu_: the producer only spills under the
    // lock, and only after the ring stopped taking pushes, so every
    // spilled entry seen below is younger than every ring entry up to
    // this snapshot.  Read outside the lock, the producer could fill
    // the ring past the snapshot and spill in between, and the spilled
    // entries would overtake the older ring entries left behind.
    std::lock_guard<std::mutex> g(spillMu_);
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t tail = tail_.load(std::memory_order_acquire);
    for (; head != tail; ++head)
        out->push_back(std::move(ring_[head % capacity_]));
    head_.store(head, std::memory_order_release);

    for (auto &ev : spill_)
        out->push_back(std::move(ev));
    spill_.clear();
}

bool
SpscMailbox::empty() const
{
    if (tail_.load(std::memory_order_acquire) !=
        head_.load(std::memory_order_relaxed))
        return false;
    std::lock_guard<std::mutex> g(spillMu_);
    return spill_.empty();
}

ParallelScheduler::ParallelScheduler(std::vector<Shard> shards,
                                     const Options &opts)
    : shards_(std::move(shards)), opts_(opts)
{
    sim_assert(!shards_.empty(), "parallel scheduler needs shards");
    for (const auto &s : shards_)
        sim_assert(s.eq != nullptr, "parallel shard needs a queue");
    const unsigned n = unsigned(shards_.size());
    numWorkers_ = std::max(1u, std::min(opts_.threads, n));
    if (opts_.window < opts_.lookahead)
        opts_.window = opts_.lookahead;
    if (opts_.window == 0)
        opts_.window = 1;
    if (opts_.batchEvents == 0)
        opts_.batchEvents = 1;
    mail_.reserve(std::size_t(n) * n);
    for (std::size_t i = 0; i < std::size_t(n) * n; ++i)
        mail_.push_back(std::make_unique<SpscMailbox>());
    pairSeq_.assign(std::size_t(n) * n, 0);
}

ParallelScheduler::~ParallelScheduler()
{
    shutdownWorkers();
}

void
ParallelScheduler::post(unsigned src, unsigned dst, Tick when, EventPri pri,
                        EventCallback cb)
{
    const unsigned n = unsigned(shards_.size());
    sim_assert(src < n && dst < n, "cross-shard post %u->%u out of range",
               src, dst);
    sim_assert(when >= windowEnd_,
               "cross-shard event at %llu violates the lookahead contract "
               "(window ends at %llu)",
               (unsigned long long)when, (unsigned long long)windowEnd_);
    const std::size_t idx = std::size_t(src) * n + dst;
    CrossEvent ev;
    ev.when = when;
    ev.pri = pri;
    ev.srcDomain = src;
    ev.srcSeq = pairSeq_[idx]++;
    ev.cb = std::move(cb);
    mail_[idx]->push(std::move(ev));
}

void
ParallelScheduler::deliverMail()
{
    const unsigned n = unsigned(shards_.size());
    std::vector<CrossEvent> batch;
    for (unsigned dst = 0; dst < n; ++dst) {
        batch.clear();
        for (unsigned src = 0; src < n; ++src)
            mail_[std::size_t(src) * n + dst]->drainTo(&batch);
        // Deterministic delivery regardless of worker timing: the order
        // events enter the destination heap fixes their FIFO sequence
        // numbers, hence the execution order of same-(tick, pri) events.
        std::stable_sort(batch.begin(), batch.end(),
                         [](const CrossEvent &a, const CrossEvent &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             if (a.pri != b.pri)
                                 return a.pri < b.pri;
                             if (a.srcDomain != b.srcDomain)
                                 return a.srcDomain < b.srcDomain;
                             return a.srcSeq < b.srcSeq;
                         });
        for (auto &ev : batch)
            shards_[dst].eq->schedule(ev.when, std::move(ev.cb), ev.pri);
    }
}

void
ParallelScheduler::runShardWindow(unsigned shard)
{
    EventQueue *eq = shards_[shard].eq;
    const Tick end = windowEnd_;
    while (true) {
        if (opts_.abort && opts_.abort->load(std::memory_order_relaxed))
            return;
        std::uint64_t ran = eq->runBounded(end, opts_.batchEvents);
        if (ran < opts_.batchEvents)
            return;
    }
}

void
ParallelScheduler::workerMain(unsigned worker)
{
    // Model code calls fatal() on invariant violations; inside a worker
    // that must unwind, not abort, so the coordinator can surface the
    // first failure on the caller's thread.
    ScopedFatalThrow rethrow;
    std::uint64_t seenGen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cvWork_.wait(lk, [&] { return generation_ != seenGen; });
            seenGen = generation_;
            if (stopWorkers_)
                return;
        }
        try {
            for (unsigned s = worker; s < shards_.size(); s += numWorkers_)
                runShardWindow(s);
        } catch (...) {
            std::lock_guard<std::mutex> g(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> g(mu_);
            if (--running_ == 0)
                cvDone_.notify_one();
        }
    }
}

void
ParallelScheduler::shutdownWorkers()
{
    if (threads_.empty())
        return;
    {
        std::lock_guard<std::mutex> g(mu_);
        stopWorkers_ = true;
        ++generation_;
    }
    cvWork_.notify_all();
    for (auto &t : threads_)
        t.join();
    threads_.clear();
}

ParallelScheduler::Result
ParallelScheduler::run()
{
    const unsigned n = unsigned(shards_.size());
    Result res;

    threads_.reserve(numWorkers_);
    for (unsigned w = 0; w < numWorkers_; ++w)
        threads_.emplace_back([this, w] { workerMain(w); });

    bool ranWindow = false;
    while (true) {
        // Between windows only this thread is active: deliver mail,
        // then read shard state directly.
        deliverMail();

        bool allDone = true;
        bool anyPending = false;
        Tick nextTick = maxTick;
        Tick maxNow = 0;
        double retired = 0;
        for (unsigned i = 0; i < n; ++i) {
            const Shard &s = shards_[i];
            if (!s.done || !s.done())
                allDone = false;
            if (s.retired)
                retired += s.retired();
            maxNow = std::max(maxNow, s.eq->now());
            nextTick = std::min(nextTick, s.eq->nextEventTick());
            anyPending = anyPending || !s.eq->empty();
        }
        res.finalTick = maxNow;
        res.retired = retired;

        {
            std::lock_guard<std::mutex> g(mu_);
            if (firstError_)
                break;
        }
        if (opts_.abort && opts_.abort->load(std::memory_order_relaxed)) {
            res.aborted = true;
            break;
        }
        if (allDone && !anyPending) {
            res.completed = true;
            break;
        }
        if (!anyPending) {
            // Every queue and mailbox empty with workloads unfinished:
            // the sharded engine's drained-deadlock signal.
            res.drained = true;
            break;
        }
        if (ranWindow && opts_.onWindow && opts_.onWindow(windowEnd_, retired)) {
            res.stoppedByHook = true;
            break;
        }
        if (nextTick >= opts_.maxTicks) {
            res.hitMaxTicks = true;
            break;
        }

        Tick end = nextTick + (opts_.window - 1);
        if (end < nextTick)
            end = maxTick; // overflow
        if (opts_.maxTicks != maxTick)
            end = std::min(end, opts_.maxTicks - 1);
        windowEnd_ = end;
        ranWindow = true;

        {
            std::lock_guard<std::mutex> g(mu_);
            running_ = numWorkers_;
            ++generation_;
        }
        cvWork_.notify_all();
        {
            std::unique_lock<std::mutex> lk(mu_);
            cvDone_.wait(lk, [&] { return running_ == 0; });
        }
    }

    shutdownWorkers();
    {
        std::lock_guard<std::mutex> g(mu_);
        if (firstError_)
            std::rethrow_exception(firstError_);
    }
    return res;
}

} // namespace csync
