#include "sim/parallel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace csync
{

namespace
{

/** Events per runBounded() slice between abort checks. */
constexpr std::uint64_t kBatchEvents = 4096;

} // namespace

ParallelScheduler::ParallelScheduler(std::vector<Shard> shards,
                                     const Options &opts)
    : shards_(std::move(shards)), opts_(opts)
{
    sim_assert(!shards_.empty(), "parallel scheduler needs shards");
    for (const auto &s : shards_)
        sim_assert(s.eq != nullptr, "parallel shard needs a queue");
    const unsigned n = unsigned(shards_.size());
    numWorkers_ = std::max(1u, std::min(opts_.threads, n));
    if (opts_.window == 0)
        opts_.window = 1;
}

ParallelScheduler::~ParallelScheduler()
{
    shutdownWorkers();
}

void
ParallelScheduler::runShardWindow(unsigned shard)
{
    EventQueue *eq = shards_[shard].eq;
    const Tick end = windowEnd_;
    while (true) {
        if (opts_.abort && opts_.abort->load(std::memory_order_relaxed))
            return;
        if (eq->runBounded(end, kBatchEvents) < kBatchEvents)
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
        // Between windows only this thread is active: read shard state
        // directly.
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
            // Every queue empty with workloads unfinished: the sharded
            // engine's drained-deadlock signal.
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
