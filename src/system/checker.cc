#include "system/checker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace csync
{

Checker::Checker(stats::Group *stats_parent)
    : statsGroup("checker", stats_parent),
      readsChecked(&statsGroup, "readsChecked", "reads validated"),
      writesRecorded(&statsGroup, "writesRecorded", "writes serialized"),
      lockPairs(&statsGroup, "lockPairs", "lock acquire/release pairs"),
      violationCount(&statsGroup, "violations", "coherence violations"),
      lockViolations(&statsGroup, "lockViolations",
                     "lock mutual-exclusion violations")
{
}

void
Checker::shardByDomain(const AddressMap *map)
{
    sim_assert(map != nullptr, "checker sharding needs an address map");
    sim_assert(domains_.empty(), "checker is already sharded");
    domainMap_ = map;
    domains_.resize(map->numSwitches());
    // A run resumed after a pause re-shards: the expectations folded at
    // the pause move back into their home domains, or every read of an
    // earlier write would look stale.
    for (const auto &[addr, val] : last_)
        domains_[map->switchFor(addr)].last[addr] = val;
    for (const auto &[addr, node] : lockHolders_)
        domains_[map->switchFor(addr)].lockHolders[addr] = node;
    last_.clear();
    lockHolders_.clear();
}

void
Checker::onWrite(NodeId node, Addr word_addr, Word value, Tick when)
{
    (void)node;
    (void)when;
    if (!domains_.empty()) {
        DomainState &d = domains_[domainMap_->switchFor(word_addr)];
        ++d.writes;
        d.last[word_addr] = value;
        return;
    }
    ++writesRecorded;
    last_[word_addr] = value;
}

void
Checker::onRead(NodeId node, Addr word_addr, Word value, Tick when)
{
    if (!domains_.empty()) {
        DomainState &d = domains_[domainMap_->switchFor(word_addr)];
        ++d.reads;
        auto it = d.last.find(word_addr);
        Word expect = it == d.last.end() ? 0 : it->second;
        if (value != expect) {
            domainViolation(d, csprintf(
                "tick %llu node %d read %llx = %llx, expected %llx",
                (unsigned long long)when, node,
                (unsigned long long)word_addr, (unsigned long long)value,
                (unsigned long long)expect), when, ViolationKind::Value,
                node);
        }
        return;
    }
    ++readsChecked;
    auto it = last_.find(word_addr);
    Word expect = it == last_.end() ? 0 : it->second;
    if (value != expect) {
        violation(csprintf(
            "tick %llu node %d read %llx = %llx, expected %llx",
            (unsigned long long)when, node, (unsigned long long)word_addr,
            (unsigned long long)value, (unsigned long long)expect), when,
            ViolationKind::Value, node);
    }
}

void
Checker::onLockAcquire(NodeId node, Addr block_addr, Tick when)
{
    if (!domains_.empty()) {
        DomainState &d = domains_[domainMap_->switchFor(block_addr)];
        auto it = d.lockHolders.find(block_addr);
        if (it != d.lockHolders.end() && it->second != invalidNode) {
            domainViolation(d, csprintf(
                "tick %llu node %d acquired lock %llx held by node %d",
                (unsigned long long)when, node,
                (unsigned long long)block_addr, it->second), when,
                ViolationKind::Lock, it->second);
        }
        d.lockHolders[block_addr] = node;
        return;
    }
    auto it = lockHolders_.find(block_addr);
    if (it != lockHolders_.end() && it->second != invalidNode) {
        // The owning node is the holder whose exclusion was broken.
        violation(csprintf(
            "tick %llu node %d acquired lock %llx held by node %d",
            (unsigned long long)when, node,
            (unsigned long long)block_addr, it->second), when,
            ViolationKind::Lock, it->second);
    }
    lockHolders_[block_addr] = node;
}

void
Checker::onLockRelease(NodeId node, Addr block_addr, Tick when)
{
    if (!domains_.empty()) {
        DomainState &d = domains_[domainMap_->switchFor(block_addr)];
        auto it = d.lockHolders.find(block_addr);
        if (it == d.lockHolders.end() || it->second != node) {
            NodeId owner =
                it == d.lockHolders.end() ? invalidNode : it->second;
            domainViolation(d, csprintf(
                "tick %llu node %d released lock %llx it does not hold",
                (unsigned long long)when, node,
                (unsigned long long)block_addr), when, ViolationKind::Lock,
                owner);
        } else {
            ++d.lockPairs;
            it->second = invalidNode;
        }
        return;
    }
    auto it = lockHolders_.find(block_addr);
    if (it == lockHolders_.end() || it->second != node) {
        NodeId owner =
            it == lockHolders_.end() ? invalidNode : it->second;
        violation(csprintf(
            "tick %llu node %d released lock %llx it does not hold",
            (unsigned long long)when, node,
            (unsigned long long)block_addr), when,
            ViolationKind::Lock, owner);
    } else {
        ++lockPairs;
        it->second = invalidNode;
    }
}

void
Checker::foldShards()
{
    sim_assert(!domains_.empty(), "checker fold without sharding");

    // Counters sum exactly: they are integer-valued doubles well below
    // the 2^53 mantissa limit.
    for (const auto &d : domains_) {
        readsChecked += double(d.reads);
        writesRecorded += double(d.writes);
        lockPairs += double(d.lockPairs);
        violationCount += double(d.violations);
        lockViolations += double(d.lockViolations);
    }

    // The address partition makes the maps disjoint, so merging cannot
    // conflict.
    for (auto &d : domains_) {
        for (auto &[addr, val] : d.last)
            last_[addr] = val;
        for (auto &[addr, node] : d.lockHolders)
            lockHolders_[addr] = node;
    }

    // Merge violation records in (tick, domain, detection order) — a
    // key independent of worker timing, so forensics are identical at
    // any thread count.
    struct Tagged
    {
        Tick when;
        std::size_t domain;
        std::size_t idx;
        const DomainState::Record *rec;
    };
    std::vector<Tagged> merged;
    for (std::size_t k = 0; k < domains_.size(); ++k)
        for (std::size_t i = 0; i < domains_[k].records.size(); ++i)
            merged.push_back(
                {domains_[k].records[i].when, k, i, &domains_[k].records[i]});
    std::sort(merged.begin(), merged.end(),
              [](const Tagged &a, const Tagged &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.domain != b.domain)
                      return a.domain < b.domain;
                  return a.idx < b.idx;
              });
    for (const auto &t : merged) {
        if (violations_.empty()) {
            firstViolationTick_ = t.rec->when;
            firstViolation_ = t.rec->what;
            firstKind_ = t.rec->kind;
            firstNode_ = t.rec->owner;
        }
        if (violations_.size() < 64)
            violations_.push_back(t.rec->what);
    }

    domains_.clear();
    domainMap_ = nullptr;
}

Word
Checker::expectedValue(Addr word_addr) const
{
    if (!domains_.empty()) {
        const DomainState &d = domains_[domainMap_->switchFor(word_addr)];
        auto dit = d.last.find(word_addr);
        if (dit != d.last.end())
            return dit->second;
    }
    auto it = last_.find(word_addr);
    return it == last_.end() ? 0 : it->second;
}

NodeId
Checker::lockHolder(Addr block_addr) const
{
    if (!domains_.empty()) {
        const DomainState &d = domains_[domainMap_->switchFor(block_addr)];
        auto dit = d.lockHolders.find(block_addr);
        if (dit != d.lockHolders.end())
            return dit->second;
    }
    auto it = lockHolders_.find(block_addr);
    return it == lockHolders_.end() ? invalidNode : it->second;
}

std::string
Checker::firstViolationStat() const
{
    switch (firstKind_) {
      case ViolationKind::Value:
        return "checker.violations";
      case ViolationKind::Lock:
        return "checker.lockViolations";
      case ViolationKind::None:
        break;
    }
    return {};
}

void
Checker::violation(const std::string &what, Tick when, ViolationKind kind,
                   NodeId owner)
{
    ++violationCount;
    if (kind == ViolationKind::Lock)
        ++lockViolations;
    if (violations_.empty()) {
        firstViolationTick_ = when;
        firstViolation_ = what;
        firstKind_ = kind;
        firstNode_ = owner;
    }
    if (violations_.size() < 64)
        violations_.push_back(what);
    Trace::emit(when, TraceFlag::Checker, "checker", what);
}

void
Checker::domainViolation(DomainState &d, const std::string &what, Tick when,
                         ViolationKind kind, NodeId owner)
{
    ++d.violations;
    if (kind == ViolationKind::Lock)
        ++d.lockViolations;
    if (d.records.size() < 64)
        d.records.push_back({when, what, kind, owner});
    // The trace channel is mutex-serialized, so emitting from a shard
    // thread is safe (line order across shards is timing-dependent, but
    // traces are narration, never golden data).
    Trace::emit(when, TraceFlag::Checker, "checker", what);
}

} // namespace csync
