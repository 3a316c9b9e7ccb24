#include "core/feature_audit.hh"

#include <sstream>

#include "proc/workloads/critical_section.hh"
#include "system/scenario.hh"

namespace csync
{

namespace
{

constexpr Addr probeAddr = 0x1000;

SystemConfig
probeOpts(const std::string &proto, unsigned procs = 4)
{
    SystemConfig c;
    c.protocol = proto;
    c.numProcessors = procs;
    c.cache.geom.frames = 16;
    return c;
}

MemOp
rd(Addr a, bool hint = false)
{
    return MemOp{OpType::Read, a, 0, hint};
}

MemOp
wr(Addr a, Word v)
{
    return MemOp{OpType::Write, a, v, false};
}

/** Make the block dirty (with write privilege) in cache 0. */
void
makeDirty(Scenario &s, unsigned p = 0)
{
    // Two writes: under Goodman the first is the write-once
    // write-through, so only the second makes the block dirty.
    s.run(p, wr(probeAddr, 1));
    s.run(p, wr(probeAddr, 2));
}

bool
probeCacheToCache(const std::string &proto)
{
    {
        Scenario s(probeOpts(proto));
        makeDirty(s);
        double before = s.system().bus().cacheSupplies.value();
        s.run(1, rd(probeAddr));
        if (s.system().bus().cacheSupplies.value() > before)
            return true;
    }
    {
        Scenario s(probeOpts(proto));
        makeDirty(s);
        double before = s.system().bus().cacheSupplies.value();
        s.run(1, wr(probeAddr, 3));
        if (s.system().bus().cacheSupplies.value() > before)
            return true;
    }
    return false;
}

bool
probeInvalidateSignal(const std::string &proto)
{
    Scenario s(probeOpts(proto));
    s.run(0, rd(probeAddr));
    s.run(1, rd(probeAddr));
    double before = s.system().bus().typeCount(BusReq::Upgrade);
    s.run(0, wr(probeAddr, 1));
    s.run(0, wr(probeAddr, 2));
    return s.system().bus().typeCount(BusReq::Upgrade) > before;
}

char
probeFetchUnshared(const std::string &proto)
{
    {
        Scenario s(probeOpts(proto));
        s.run(0, rd(probeAddr, false));
        if (canWrite(s.state(0, probeAddr)))
            return 'D';
    }
    {
        Scenario s(probeOpts(proto));
        s.run(0, rd(probeAddr, true));
        if (canWrite(s.state(0, probeAddr)))
            return 'S';
    }
    return 0;
}

void
probeFlush(const std::string &proto, FeatureAudit &a)
{
    {
        Scenario s(probeOpts(proto));
        makeDirty(s);
        double mw = s.system().memory().blockWrites.value();
        double cs = s.system().bus().cacheSupplies.value();
        s.run(1, rd(probeAddr));
        if (s.system().bus().cacheSupplies.value() > cs) {
            a.transferObserved = true;
            a.flushOnTransfer =
                s.system().memory().blockWrites.value() > mw;
            return;
        }
    }
    {
        Scenario s(probeOpts(proto));
        makeDirty(s);
        double mw = s.system().memory().blockWrites.value();
        double cs = s.system().bus().cacheSupplies.value();
        s.run(1, wr(probeAddr, 3));
        if (s.system().bus().cacheSupplies.value() > cs) {
            a.transferObserved = false;
            a.flushOnTransfer =
                s.system().memory().blockWrites.value() > mw;
        }
    }
}

bool
probeWriteNoFetch(const std::string &proto)
{
    Scenario s(probeOpts(proto));
    makeDirty(s);
    double supplies = s.system().bus().cacheSupplies.value() +
                      s.system().bus().memSupplies.value();
    s.run(1, MemOp{OpType::WriteNoFetch, probeAddr, 5, false});
    double supplies_after = s.system().bus().cacheSupplies.value() +
                            s.system().bus().memSupplies.value();
    return s.system().bus().typeCount(BusReq::WriteNoFetch) > 0 &&
           supplies_after == supplies;
}

std::string
probeSource(const std::string &proto)
{
    Scenario s(probeOpts(proto));
    makeDirty(s);
    s.run(1, rd(probeAddr));

    double arb = s.system().bus().sourceArbitrations.value();
    double sup0 = s.cache(0).blocksSupplied.value();
    double sup1 = s.cache(1).blocksSupplied.value();
    s.run(2, rd(probeAddr));

    if (s.system().bus().sourceArbitrations.value() > arb)
        return "ARB";
    if (s.cache(1).blocksSupplied.value() > sup1)
        return "LRU";
    if (s.cache(0).blocksSupplied.value() > sup0)
        return "MEM";
    return "";
}

/** Contended lock handoff; measures retries and mutual exclusion. */
void
probeContention(const std::string &proto, FeatureAudit &a)
{
    auto protocol = makeProtocol(proto);
    LockAlg alg = protocol->supportsLockOps() ? LockAlg::CacheLock
                                              : LockAlg::TestTestSet;
    bool has_rmw = protocol->features().atomicRmw ||
                   protocol->supportsLockOps();
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.numProcessors = 3;
    cfg.cache.geom.frames = 32;
    cfg.cache.geom.blockWords = 4;
    if (!has_rmw) {
        // No serialized RMW: run a read/write-only coherence shakeout,
        // a simple alternating-writer ping-pong through the checker.
        Scenario s(cfg);
        for (int round = 0; round < 30; ++round)
            s.tryRun(round % 3, wr(probeAddr, Word(round)));
        a.valuesCoherent = s.system().checker().violations() == 0;
        a.rmwSerialized = false;
        a.efficientBusyWait = false;
        return;
    }

    System sys(cfg);

    const std::uint64_t iters = 25;
    CriticalSectionParams p;
    p.iterations = iters;
    p.alg = alg;
    p.numLocks = 1;
    p.wordsPerCs = 1;
    p.blockBytes = 32;
    p.outsideThink = 5;
    for (unsigned i = 0; i < 3; ++i) {
        p.procId = i;
        sys.addProcessor(std::make_unique<CriticalSectionWorkload>(p));
    }
    sys.start();
    sys.run(5'000'000);

    std::uint64_t completed = 0, failures = 0;
    for (unsigned i = 0; i < 3; ++i) {
        auto &wl = static_cast<CriticalSectionWorkload &>(
            sys.processor(i).workload());
        completed += wl.completed();
        if (alg == LockAlg::CacheLock) {
            failures +=
                std::uint64_t(sys.cache(i).lockRetries.value());
        } else {
            failures += wl.lockDriver().rmwAttempts() - wl.completed();
        }
    }
    Addr counter = CriticalSectionWorkload::dataWordAddr(p, 0, 0);
    bool exact =
        sys.checker().expectedValue(counter) == Word(3 * iters);
    a.rmwSerialized = completed == 3 * iters && exact &&
                      sys.checker().violations() == 0;
    a.valuesCoherent = sys.checker().violations() == 0;
    a.efficientBusyWait = a.rmwSerialized && failures == 0;
}

} // anonymous namespace

bool
FeatureAudit::consistent(std::string *why) const
{
    auto fail = [&](const std::string &w) {
        if (why)
            *why = protocol + ": " + w;
        return false;
    };

    if (cacheToCache != claimed.cacheToCache)
        return fail("cache-to-cache mismatch");
    if (invalidateSignal != claimed.busInvalidateSignal)
        return fail("invalidate-signal mismatch");
    if (fetchUnsharedForWrite != claimed.fetchUnsharedForWrite)
        return fail("fetch-unshared-for-write mismatch");
    if (!claimed.flushPolicy.empty()) {
        bool claimed_flush = claimed.flushPolicy == "F";
        if (flushOnTransfer != claimed_flush)
            return fail("flush-on-transfer mismatch");
    }
    if (writeNoFetch != claimed.writeNoFetch)
        return fail("write-no-fetch mismatch");
    if (efficientBusyWait != claimed.efficientBusyWait)
        return fail("efficient-busy-wait mismatch");
    if (claimed.atomicRmw && !rmwSerialized)
        return fail("atomic RMW not serialized");
    if (claimed.serializesConflicts && !valuesCoherent)
        return fail("value coherence violated");
    std::string want_source = claimed.sourcePolicy == "LRU,MEM"
                                  ? "LRU"
                                  : claimed.sourcePolicy;
    if (want_source == "ARB" || want_source == "LRU" ||
        want_source == "MEM" || want_source.empty()) {
        if (sourceBehavior != want_source)
            return fail("source policy mismatch (measured '" +
                        sourceBehavior + "')");
    }
    return true;
}

FeatureAudit
auditProtocol(const std::string &name)
{
    FeatureAudit a;
    auto proto = makeProtocol(name);
    a.protocol = name;
    a.citation = proto->citation();
    a.claimed = proto->features();
    a.states = proto->statesUsed();

    a.cacheToCache = probeCacheToCache(name);
    a.invalidateSignal = probeInvalidateSignal(name);
    a.fetchUnsharedForWrite = probeFetchUnshared(name);
    probeFlush(name, a);
    a.writeNoFetch = probeWriteNoFetch(name);
    a.sourceBehavior = probeSource(name);
    probeContention(name, a);
    return a;
}

std::vector<FeatureAudit>
auditTable1Protocols()
{
    std::vector<FeatureAudit> out;
    for (const auto &name : ProtocolRegistry::table1Order())
        out.push_back(auditProtocol(name));
    return out;
}

namespace
{

/** Paper-order state rows and their labels. */
struct StateRow
{
    const char *label;
    bool (*matches)(State s);
};

const StateRow stateRows[] = {
    {"Invalid", [](State s) { return !isValid(s); }},
    {"Read",
     [](State s) {
         return isValid(s) && !canWrite(s) && !isSource(s);
     }},
    {"Read, Clean",
     [](State s) {
         return isValid(s) && !canWrite(s) && isSource(s) && !isDirty(s);
     }},
    {"Read, Dirty",
     [](State s) {
         return isValid(s) && !canWrite(s) && isSource(s) && isDirty(s);
     }},
    {"Write, Clean",
     [](State s) {
         return canWrite(s) && !isLocked(s) && !isDirty(s);
     }},
    {"Write, Dirty",
     [](State s) {
         return canWrite(s) && !isLocked(s) && isDirty(s);
     }},
    {"Lock, Dirty",
     [](State s) { return isLocked(s) && !hasWaiter(s); }},
    {"Lock, Dirty, Waiter",
     [](State s) { return isLocked(s) && hasWaiter(s); }},
};

std::string
cellFor(const FeatureAudit &a, const StateRow &row)
{
    for (State s : a.states) {
        if (!row.matches(s))
            continue;
        if (!isValid(s))
            return "x";
        if (isSource(s))
            return "S";
        // Papamarcos & Patel: every holder of a Read copy is a
        // potential source, arbitrated on demand.
        if (a.claimed.sourcePolicy == "ARB")
            return "S";
        return "N";
    }
    return "";
}

std::string
padded(const std::string &s, std::size_t w)
{
    std::string out = s;
    if (out.size() < w)
        out.append(w - out.size(), ' ');
    return out;
}

} // anonymous namespace

std::string
renderTable1(const std::vector<FeatureAudit> &audits)
{
    std::ostringstream os;
    const std::size_t label_w = 46, col_w = 10;

    os << "Table 1. Evolution of Full-Broadcast, Write-In "
          "Cache-Synchronization Schemes\n";
    os << "(states: N = non-source, S = source, x = present; features "
          "measured behaviorally;\n a trailing exclamation mark flags a "
          "measurement that disagrees with the claim)\n\n";

    os << padded("States", label_w);
    for (const auto &a : audits)
        os << padded(a.protocol, col_w);
    os << "\n";
    for (const auto &row : stateRows) {
        os << padded("  " + std::string(row.label), label_w);
        for (const auto &a : audits)
            os << padded(cellFor(a, row), col_w);
        os << "\n";
    }

    os << "\n" << padded("Features", label_w) << "\n";
    auto feature_row = [&](const std::string &label,
                           auto value_fn, auto ok_fn) {
        os << padded("  " + label, label_w);
        for (const auto &a : audits) {
            std::string v = value_fn(a);
            if (!ok_fn(a))
                v += "!";
            os << padded(v, col_w);
        }
        os << "\n";
    };

    feature_row(
        "1. Cache-to-cache transfer; serialization",
        [](const FeatureAudit &a) {
            return a.claimed.cacheToCache ? std::string("yes")
                                          : std::string("-");
        },
        [](const FeatureAudit &a) {
            return a.cacheToCache == a.claimed.cacheToCache &&
                   a.valuesCoherent >= a.claimed.serializesConflicts;
        });
    feature_row(
        "2. Fully-distributed state (R/W/L/D/S)",
        [](const FeatureAudit &a) { return a.claimed.distributedState; },
        [](const FeatureAudit &) { return true; });
    feature_row(
        "3. Directory duality (ID/NID/DPR)",
        [](const FeatureAudit &a) {
            return a.claimed.directorySpecified
                       ? std::string(directoryKindCode(a.claimed.directory))
                       : std::string("-");
        },
        [](const FeatureAudit &) { return true; });
    feature_row(
        "4. Bus invalidate signal",
        [](const FeatureAudit &a) {
            return a.claimed.busInvalidateSignal ? std::string("yes")
                                                 : std::string("-");
        },
        [](const FeatureAudit &a) {
            return a.invalidateSignal == a.claimed.busInvalidateSignal;
        });
    feature_row(
        "5. Fetch unshared for write privilege (D/S)",
        [](const FeatureAudit &a) {
            return a.claimed.fetchUnsharedForWrite
                       ? std::string(1, a.claimed.fetchUnsharedForWrite)
                       : std::string("-");
        },
        [](const FeatureAudit &a) {
            return a.fetchUnsharedForWrite ==
                   a.claimed.fetchUnsharedForWrite;
        });
    feature_row(
        "6. Atomic read-modify-write serialized",
        [](const FeatureAudit &a) {
            return a.claimed.atomicRmw ? std::string("yes")
                                       : std::string("-");
        },
        [](const FeatureAudit &a) {
            return !a.claimed.atomicRmw || a.rmwSerialized;
        });
    feature_row(
        "7. Flushing on cache-to-cache transfer",
        [](const FeatureAudit &a) {
            return a.claimed.flushPolicy.empty() ? std::string("-")
                                                 : a.claimed.flushPolicy;
        },
        [](const FeatureAudit &a) {
            return a.claimed.flushPolicy.empty() ||
                   a.flushOnTransfer == (a.claimed.flushPolicy == "F");
        });
    feature_row(
        "8. Sources for read-privilege block",
        [](const FeatureAudit &a) {
            return a.claimed.sourcePolicy.empty()
                       ? std::string("-")
                       : a.claimed.sourcePolicy;
        },
        [](const FeatureAudit &a) {
            std::string want = a.claimed.sourcePolicy == "LRU,MEM"
                                   ? "LRU"
                                   : a.claimed.sourcePolicy;
            return a.sourceBehavior == want;
        });
    feature_row(
        "9. Writing without fetch on write miss",
        [](const FeatureAudit &a) {
            return a.claimed.writeNoFetch ? std::string("yes")
                                          : std::string("-");
        },
        [](const FeatureAudit &a) {
            return a.writeNoFetch == a.claimed.writeNoFetch;
        });
    feature_row(
        "10. Efficient busy wait",
        [](const FeatureAudit &a) {
            return a.claimed.efficientBusyWait ? std::string("yes")
                                               : std::string("-");
        },
        [](const FeatureAudit &a) {
            return a.efficientBusyWait == a.claimed.efficientBusyWait;
        });

    return os.str();
}

std::string
renderTable2(const std::vector<FeatureAudit> &audits)
{
    auto find = [&](const std::string &name) -> const FeatureAudit * {
        for (const auto &a : audits)
            if (a.protocol == name)
                return &a;
        return nullptr;
    };
    auto mark = [](bool measured) { return measured ? "[measured]"
                                                    : "[claimed]"; };

    std::ostringstream os;
    os << "Table 2. Innovation Summary (with behavioral evidence)\n\n";

    if (const auto *a = find("classic_wt")) {
        os << "Early Schemes\n"
           << "* Classic (pre-1978) write-through — " << a->citation
           << "\n"
           << "  - identical dual directories; invalidation broadcast on "
              "every write "
           << mark(!a->invalidateSignal && !a->cacheToCache) << "\n\n";
    }
    if (const auto *a = find("goodman")) {
        os << "Full Broadcast, Write-In\n"
           << "* Goodman (1983)\n"
           << "  - fully-distributed R/W/D/S status; cache-to-cache "
              "transfer for dirty blocks "
           << mark(a->cacheToCache) << "\n"
           << "  - flushing on cache-to-cache transfer "
           << mark(a->flushOnTransfer) << "\n"
           << "  - invalidation write-through (no bus invalidate signal) "
           << mark(!a->invalidateSignal) << "\n";
    }
    if (const auto *a = find("synapse")) {
        os << "* Frank (1984)\n"
           << "  - bus invalidate signal " << mark(a->invalidateSignal)
           << "\n"
           << "  - no flushing on cache-to-cache transfer "
           << mark(!a->flushOnTransfer) << "\n"
           << "  - source bit kept in main memory (RWD only)\n";
    }
    if (const auto *a = find("illinois")) {
        os << "* Papamarcos, Patel (1984)\n"
           << "  - cache-to-cache transfer for clean blocks; multiple "
              "sources arbitrate "
           << mark(a->sourceBehavior == "ARB") << "\n"
           << "  - fetching unshared data for write privilege, dynamic "
              "(hit line) "
           << mark(a->fetchUnsharedForWrite == 'D') << "\n"
           << "  - serialized atomic read-modify-write "
           << mark(a->rmwSerialized) << "\n";
    }
    if (const auto *a = find("yen")) {
        os << "* Yen, Yen, Fu (1985)\n"
           << "  - fetching unshared data for write privilege, static "
              "(program declaration) "
           << mark(a->fetchUnsharedForWrite == 'S') << "\n";
    }
    if (const auto *a = find("berkeley")) {
        os << "* Katz, Eggers, Wood, Perkins, Sheldon (1985)\n"
           << "  - dirty read state: cache-to-cache transfer on read "
              "without flushing "
           << mark(a->transferObserved && !a->flushOnTransfer) << "\n"
           << "  - single source; memory fallback if the source purges "
           << mark(a->sourceBehavior == "MEM") << "\n"
           << "  - dual-ported-read directory\n";
    }
    if (const auto *a = find("bitar")) {
        os << "* Our proposal (Bitar & Despain 1986)\n"
           << "  - efficient busy-wait locking: lock state "
           << mark(a->rmwSerialized) << "\n"
           << "  - efficient busy-waiting: lock-waiter state + busy-wait "
              "register, zero unsuccessful retries "
           << mark(a->efficientBusyWait) << "\n"
           << "  - last fetcher becomes source (LRU across caches) "
           << mark(a->sourceBehavior == "LRU") << "\n"
           << "  - writing without fetch on write miss "
           << mark(a->writeNoFetch) << "\n"
           << "  - non-identical dual directories (interference "
              "analysis)\n";
    }
    os << "Write-In/Write-Through Schemes\n";
    if (const auto *a = find("dragon")) {
        os << "* Dragon (McCreight 1984)\n"
           << "  - dynamic shared status via hit line; update writes, "
              "owner keeps dirty data "
           << mark(!a->invalidateSignal && a->cacheToCache) << "\n";
    }
    if (const auto *a = find("firefly")) {
        os << "* Firefly (Archibald & Baer 1985)\n"
           << "  - dynamic shared status via hit line; update writes "
              "through to memory "
           << mark(!a->invalidateSignal && a->cacheToCache) << "\n";
    }
    if (const auto *a = find("rudolph_segall")) {
        os << "* Rudolph, Segall (1984)\n"
           << "  - shared status from access interleaving: first write "
              "updates, second invalidates "
           << mark(a->invalidateSignal) << "\n"
           << "  - efficient busy wait via broadcast of lock-word "
              "writes\n";
    }
    return os.str();
}

} // namespace csync
