#include "system/system.hh"

#include <algorithm>
#include <exception>
#include <map>
#include <sstream>
#include <thread>

#include "sim/stats_json.hh"

namespace csync
{

namespace
{

/** Events per batch of the event loop, between its stop checks. */
constexpr std::uint64_t kBatchEvents = 4096;

/** @p Procs: a range of owning or raw Processor pointers. */
template <typename Procs>
bool
allFinished(const Procs &procs)
{
    for (const auto &p : procs)
        if (!p->done())
            return false;
    return true;
}

template <typename Procs>
double
retiredBy(const Procs &procs)
{
    double retired = 0;
    for (const auto &p : procs)
        retired += p->opsCompleted.value();
    return retired;
}

/**
 * The one event loop: run @p eq in batches until every processor in
 * @p procs finishes, @p eq drains, @p watchdog sees no retirement for
 * its window, @p abort reads true, or @p max_ticks is reached.
 * @return why @p watchdog should trip ("" when it should not).
 */
template <typename Procs>
std::string
runLoop(EventQueue &eq, const Procs &procs, ProgressWatchdog &watchdog,
        Tick max_ticks, const std::atomic<bool> *abort)
{
    watchdog.restart(eq.now(), retiredBy(procs));
    while (!allFinished(procs) && !eq.empty() && eq.now() < max_ticks) {
        if (abort && abort->load(std::memory_order_relaxed))
            return "";
        eq.runSteps(kBatchEvents);
        if (watchdog.observe(eq.now(), retiredBy(procs))) {
            return csprintf(
                "no processor retired an operation for %llu ticks",
                (unsigned long long)watchdog.window());
        }
    }
    // The calendar drained with workloads unfinished: a deadlock, which
    // is just livelock with zero events.
    if (!allFinished(procs) && eq.empty())
        return "event queue drained with unfinished workloads";
    return "";
}

} // namespace

System::System(const SystemConfig &cfg)
    : cfg_(cfg), root_(cfg.name), checker_(&root_),
      // The watchdog's counters join the stats tree only on faulty runs
      // so clean runs keep a byte-identical stats dump; the trip state
      // itself is always live (a deadlocked clean run is still caught).
      watchdog_("watchdog", cfg.fault.watchdogWindow,
                cfg.fault.enabled() ? &root_ : nullptr)
{
    cfg_.validate();
    map_ = AddressMap(cfg_.topology);

    Checker *chk = cfg_.enableChecker ? &checker_ : nullptr;
    unsigned p = cfg_.numProcessors;
    const auto &switches = cfg_.topology.switches;
    // Per-class traffic counters exist only on multi-switch systems, so
    // the single-bus stats tree stays byte-identical to before the
    // topology layer existed.
    bool multi = switches.size() > 1;

    for (std::size_t k = 0; k < switches.size(); ++k) {
        const SwitchSpec &sw = switches[k];
        Port port;
        port.memory = std::make_unique<Memory>(
            multi ? sw.name + ".memory" : "memory", &eq_,
            cfg_.cache.geom.blockWords, &root_);
        bool faulted = cfg_.fault.enabled() &&
                       (cfg_.fault.target.empty() ||
                        cfg_.fault.target == sw.name);
        const std::string &arb = sw.arbitration.empty() ? cfg_.arbitration
                                                        : sw.arbitration;
        port.bus = std::make_unique<Bus>(
            sw.name, &eq_, port.memory.get(), cfg_.timing, &root_,
            sw.carries, multi, arb, faulted ? &cfg_.fault : nullptr);

        for (unsigned i = 0; i < p; ++i) {
            // Every switch runs the configured protocol, one tuned
            // instance per cache port.
            auto protocol = makeProtocol(cfg_.protocol);
            if (auto *ap = dynamic_cast<AdaptiveProtocol *>(protocol.get()))
                ap->setTuning(cfg_.adaptive);
            CacheConfig cc = cfg_.cache;
            if (cfg_.directoryFromProtocol)
                cc.directory = protocol->features().directory;
            port.caches.push_back(std::make_unique<Cache>(
                multi ? csprintf("%s.cache%u", sw.name.c_str(), i)
                      : csprintf("cache%u", i),
                &eq_, NodeId(i), NodeId(p + i), cc, std::move(protocol),
                port.bus.get(), chk, &root_));
        }
        // Caches first (they win supplier selection), then their
        // busy-wait registers, then I/O.
        for (auto &c : port.caches)
            port.bus->addClient(c.get());
        for (auto &c : port.caches)
            port.bus->addClient(&c->busyWaitRegister());
        ports_.push_back(std::move(port));
    }

    if (cfg_.withIODevice) {
        // I/O broadcasts ride the synchronization system (Section E.2).
        Port &sync_port = ports_[cfg_.topology.syncSwitch()];
        io_ = std::make_unique<IODevice>("io", &eq_, NodeId(2 * p),
                                         sync_port.bus.get(), chk, &root_);
        sync_port.bus->addClient(io_.get());
    }

    if (cfg_.topology.clustered())
        buildHierarchy();
}

void
System::buildHierarchy()
{
    const TopologyConfig &topo = cfg_.topology;
    unsigned p = cfg_.numProcessors;
    rootBus_ = std::make_unique<RootBusModel>(topo.rootName, &root_);
    for (unsigned c = 0; c < topo.numClusters(); ++c) {
        l2s_.push_back(std::make_unique<SharedCache>(
            topo.switches[c].name + ".l2", c, topo.clusters[c],
            ports_.size(), &root_));
    }
    for (std::size_t k = 0; k < ports_.size(); ++k)
        for (unsigned i = 0; i < p; ++i)
            l2s_[topo.clusterOfProc(i, p)]->addMember(
                k, ports_[k].caches[i].get());

    std::vector<SharedCache *> l2s;
    for (auto &l2 : l2s_)
        l2s.push_back(l2.get());
    // A root traversal costs a second arbitration plus the address
    // phase one level up; contention is not modeled beyond the home
    // bus's own serialization (see DESIGN.md).
    Tick penalty = cfg_.timing.arbCycles + cfg_.timing.addrCycles;
    for (std::size_t k = 0; k < ports_.size(); ++k) {
        auto gate = std::make_unique<ClusterGate>(
            topo.switches[k].name, k, &topo, p, l2s, rootBus_.get(),
            penalty, &root_);
        ports_[k].bus->setClusterGate(gate.get());
        gates_.push_back(std::move(gate));
    }
}

unsigned
System::addProcessor(std::unique_ptr<Workload> workload,
                     bool work_while_waiting)
{
    unsigned idx = unsigned(procs_.size());
    sim_assert(idx < ports_.front().caches.size(),
               "more processors than caches");
    std::vector<Cache *> cache_ports;
    for (auto &port : ports_)
        cache_ports.push_back(port.caches[idx].get());
    procs_.push_back(std::make_unique<Processor>(
        csprintf("proc%u", idx), &eq_, NodeId(idx),
        std::move(cache_ports), &map_, std::move(workload), &root_));
    if (work_while_waiting)
        procs_.back()->enableWorkWhileWaiting();
    return idx;
}

void
System::start()
{
    planShards();
    for (auto &p : procs_)
        p->start();
}

void
System::planShards()
{
    std::vector<const Workload *> workloads;
    workloads.reserve(procs_.size());
    for (const auto &p : procs_)
        workloads.push_back(&p->workload());
    partition_ = planDomainPartition(cfg_, map_, workloads);
    if (!partition_.active)
        return;

    // Rebinding is only legal while nothing is scheduled: every object
    // still points at eq_, and moving one after it has events in
    // flight would strand them.
    sim_assert(eq_.empty() && eq_.now() == 0,
               "domain sharding must happen before any event runs");
    sim_assert(partition_.domains == ports_.size(),
               "partition domain count mismatch");

    for (unsigned k = 1; k < partition_.domains; ++k)
        shardEqs_.push_back(std::make_unique<EventQueue>());

    // Move switch k and everything behind it onto shard k's queue;
    // shard 0 keeps eq_.
    for (unsigned k = 1; k < partition_.domains; ++k) {
        EventQueue *eq = &shardQueue(k);
        Port &port = ports_[k];
        port.memory->rebind(eq);
        port.bus->rebind(eq);
        for (auto &c : port.caches) {
            c->rebind(eq);
            c->busyWaitRegister().rebind(eq);
        }
    }

    shardProcs_.assign(partition_.domains, {});
    for (unsigned i = 0; i < procs_.size(); ++i) {
        unsigned home = partition_.procHome[i];
        if (home != 0)
            procs_[i]->rebind(&shardQueue(home));
        procs_[i]->setHomeDomain(home);
        shardProcs_[home].push_back(procs_[i].get());
    }
}

bool
System::allDone() const
{
    return allFinished(procs_);
}

double
System::totalRetiredOps() const
{
    return retiredBy(procs_);
}

Tick
System::run(Tick max_ticks, const std::atomic<bool> *abort)
{
    if (partition_.active)
        return runSharded(max_ticks, abort);

    std::string why = runLoop(eq_, procs_, watchdog_, max_ticks, abort);
    if (!why.empty())
        watchdog_.trip(progressDiagnostic(why));
    return eq_.now();
}

Tick
System::runSharded(Tick max_ticks, const std::atomic<bool> *abort)
{
    // The checker is sharded for exactly the span of the fork-join.
    if (cfg_.enableChecker)
        checker_.shardByDomain(&map_);

    // Each domain runs the serial loop on its own queue with its own
    // watchdog, and no domain stops another, so every domain's end
    // state is a function of the configuration alone.
    struct Outcome
    {
        std::string why;
        std::exception_ptr error;
    };
    const unsigned domains = partition_.domains;
    std::vector<Outcome> outcomes(domains);
    auto worker = [&](unsigned first, unsigned stride) {
        // Model code calls fatal() on invariant violations; on a worker
        // that must unwind, not exit, so the caller can rethrow it.
        ScopedFatalThrow rethrow;
        for (unsigned k = first; k < domains; k += stride) {
            try {
                // Kept out of the stats tree: a domain's retirement is
                // not the machine's, and watchdog_ reports the trip.
                ProgressWatchdog watchdog("watchdog", watchdog_.window(),
                                          nullptr);
                outcomes[k].why = runLoop(shardQueue(k), shardProcs_[k],
                                          watchdog, max_ticks, abort);
            } catch (...) {
                outcomes[k].error = std::current_exception();
            }
        }
    };
    {
        // jthreads join on every exit from this scope, a failed spawn
        // included.
        const unsigned threads = std::min(cfg_.simThreads, domains);
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (unsigned w = 0; w < threads; ++w)
            pool.emplace_back(worker, w, threads);
    }

    if (cfg_.enableChecker)
        checker_.foldShards();
    for (const Outcome &o : outcomes)
        if (o.error)
            std::rethrow_exception(o.error);
    for (const Outcome &o : outcomes) {
        if (!o.why.empty()) {
            watchdog_.trip(progressDiagnostic(o.why));
            break;
        }
    }
    Tick end = 0;
    for (unsigned k = 0; k < domains; ++k)
        end = std::max(end, shardQueue(k).now());
    return end;
}

std::string
System::progressDiagnostic(const std::string &why) const
{
    std::ostringstream os;
    os << why << " [tick " << eq_.now() << ", " << eq_.executed()
       << " events executed]";

    bool any_msg = false;
    for (const auto &port : ports_) {
        if (!port.bus->hasLastMsg())
            continue;
        any_msg = true;
        const BusMsg &m = port.bus->lastMsg();
        os << csprintf("; last %s msg: %s blk=%llx from node %d at tick "
                       "%llu",
                       port.bus->name().c_str(), busReqName(m.req),
                       (unsigned long long)m.blockAddr, m.requester,
                       (unsigned long long)port.bus->lastMsgTick());
        os << "; block states:";
        for (const auto &c : port.caches) {
            os << csprintf(" %s=%s", c->name().c_str(),
                           stateName(c->stateOf(m.blockAddr)).c_str());
        }
    }
    if (!any_msg)
        os << "; no bus transaction was ever broadcast";

    os << "; busy-wait registers:";
    bool any_armed = false;
    for (const auto &port : ports_) {
        for (const auto &c : port.caches) {
            if (c->busyWaitArmed()) {
                any_armed = true;
                os << csprintf(" %s@%llx", c->name().c_str(),
                               (unsigned long long)
                                   c->busyWaitRegister().blockAddr());
            }
        }
    }
    if (!any_armed)
        os << " none armed";

    os << "; retired:";
    for (unsigned i = 0; i < procs_.size(); ++i) {
        os << csprintf(" proc%u=%.0f", i,
                       procs_[i]->opsCompleted.value());
    }
    return os.str();
}

void
System::checkpoint(Checkpoint &out) const
{
    sim_assert(procs_.empty() && !io_,
               "checkpoints cover directed machines only");
    eq_.checkpoint(out.eq);
    out.stats.clear();
    root_.checkpointStats(out.stats);
    checker_.checkpoint(out.checker);
    out.ports.resize(ports_.size());
    for (std::size_t k = 0; k < ports_.size(); ++k) {
        const Port &port = ports_[k];
        Checkpoint::Port &saved = out.ports[k];
        port.memory->checkpoint(saved.memory);
        port.bus->checkpoint(saved.bus);
        saved.caches.resize(port.caches.size());
        for (std::size_t i = 0; i < port.caches.size(); ++i)
            port.caches[i]->checkpoint(saved.caches[i]);
    }
    out.l2s.resize(l2s_.size());
    for (std::size_t c = 0; c < l2s_.size(); ++c)
        l2s_[c]->checkpoint(out.l2s[c]);
}

void
System::restore(const Checkpoint &cp)
{
    sim_assert(cp.ports.size() == ports_.size() &&
                   cp.l2s.size() == l2s_.size(),
               "checkpoint from another machine");
    eq_.restore(cp.eq);
    WordReader stats(cp.stats);
    root_.restoreStats(stats);
    sim_assert(stats.done(), "stats checkpoint not fully read");
    checker_.restore(cp.checker);
    for (std::size_t k = 0; k < ports_.size(); ++k) {
        Port &port = ports_[k];
        const Checkpoint::Port &saved = cp.ports[k];
        port.memory->restore(saved.memory);
        port.bus->restore(saved.bus);
        for (std::size_t i = 0; i < port.caches.size(); ++i)
            port.caches[i]->restore(saved.caches.at(i));
    }
    for (std::size_t c = 0; c < l2s_.size(); ++c)
        l2s_[c]->restore(cp.l2s[c]);
}

void
System::dumpStats(std::ostream &os)
{
    root_.dump(os);
}

void
System::dumpStatsJson(std::ostream &os)
{
    stats::dumpJson(root_, os);
}

unsigned
System::checkStateInvariants(std::string *why)
{
    unsigned violations = 0;
    auto report = [&](const std::string &what) {
        ++violations;
        if (why && why->empty())
            *why = what;
    };

    struct Copy
    {
        const Cache *cache;
        const Frame *frame;
    };
    // Coherence is per switch: each address has exactly one backing
    // memory and one snoop domain, so copies are grouped within a port.
    for (const auto &port : ports_) {
        std::map<Addr, std::vector<Copy>> blocks;
        for (const auto &c : port.caches) {
            c->blocks().forEachValid([&](const Frame &f) {
                blocks[f.blockAddr].push_back(Copy{c.get(), &f});
            });
        }

        for (const auto &[addr, copies] : blocks) {
            unsigned writable = 0, sources = 0, locked = 0, dirty = 0;
            for (const auto &c : copies) {
                if (canWrite(c.frame->state))
                    ++writable;
                if (isSource(c.frame->state))
                    ++sources;
                if (isLocked(c.frame->state))
                    ++locked;
                if (isDirty(c.frame->state))
                    ++dirty;
            }
            if (writable > 1) {
                report(csprintf("block %llx writable in %u caches",
                                (unsigned long long)addr, writable));
            }
            if (sources > 1) {
                report(csprintf("block %llx has %u sources",
                                (unsigned long long)addr, sources));
            }
            if (locked > 1) {
                report(csprintf("block %llx locked in %u caches",
                                (unsigned long long)addr, locked));
            }
            if (writable >= 1 && copies.size() > 1) {
                report(csprintf("block %llx writable with %zu copies",
                                (unsigned long long)addr, copies.size()));
            }
            for (std::size_t i = 1; i < copies.size(); ++i) {
                if (copies[i].frame->data != copies[0].frame->data) {
                    report(csprintf("block %llx copies differ (%s vs %s)",
                                    (unsigned long long)addr,
                                    copies[0].cache->name().c_str(),
                                    copies[i].cache->name().c_str()));
                    break;
                }
            }
            if (dirty == 0 &&
                copies[0].frame->data != port.memory->peekBlock(addr)) {
                report(csprintf(
                    "block %llx clean copies differ from memory",
                    (unsigned long long)addr));
            }
        }
    }
    return violations;
}

} // namespace csync
