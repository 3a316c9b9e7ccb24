/**
 * @file
 * Value-level coherence checker (Section C.1's two implementation
 * requirements, made executable):
 *
 *  1. "Serialize conflicting accesses" — every read must return the value
 *     of the *last serialized write* to that word, and lock/unlock pairs
 *     must be mutually exclusive.
 *  2. "Provide the latest version of the data, wherever it may be" —
 *     follows from (1) because caches and memory carry real data in this
 *     simulator; a protocol that loses track of the latest version
 *     surfaces as a value mismatch.
 *
 * Violations are recorded, not fatal, so property tests can assert
 * violations() == 0 and negative tests can observe deliberate breakage.
 */

#ifndef CSYNC_SYSTEM_CHECKER_HH
#define CSYNC_SYSTEM_CHECKER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "system/topology.hh"

namespace csync
{

/**
 * Global serialization monitor.
 */
class Checker
{
  public:
    /** Broad class of a recorded violation (forensics). */
    enum class ViolationKind
    {
        None,
        /** A read observed a value other than the last serialized write. */
        Value,
        /** Lock/unlock mutual exclusion was broken. */
        Lock,
    };

    explicit Checker(stats::Group *stats_parent);

    /**
     * Enter sharded mode for a domain-partitioned parallel run: until
     * foldShards(), every notification is routed by @p map to a
     * per-domain sub-state touched only by that domain's worker thread
     * (the partition guarantees an address is only ever seen by its
     * home domain, so sub-states never interact).  Expectations
     * recorded so far move into their domains; the stats scalars and
     * the global forensic fields stay untouched until the fold.
     */
    void shardByDomain(const AddressMap *map);

    /**
     * Leave sharded mode: merge every domain's counters, maps, and
     * violation records back into the global state.  Records merge in
     * (tick, domain, per-domain order) — a deterministic order that
     * does not depend on worker timing — so firstViolation*() and the
     * stats dump are identical across thread counts.
     */
    void foldShards();

    /** A write to @p word_addr serialized with value @p value. */
    void onWrite(NodeId node, Addr word_addr, Word value, Tick when);

    /** A read of @p word_addr observed @p value. */
    void onRead(NodeId node, Addr word_addr, Word value, Tick when);

    /** Node @p node acquired the lock on @p block_addr. */
    void onLockAcquire(NodeId node, Addr block_addr, Tick when);

    /** Node @p node released the lock on @p block_addr. */
    void onLockRelease(NodeId node, Addr block_addr, Tick when);

    /** Total violations recorded. */
    std::uint64_t
    violations() const
    {
        return std::uint64_t(violationCount.value());
    }

    /** Human-readable violation records (capped at 64). */
    const std::vector<std::string> &violationLog() const
    {
        return violations_;
    }

    /** Tick of the first recorded violation (0 if none). */
    Tick firstViolationTick() const { return firstViolationTick_; }

    /** Description of the first recorded violation ("" if none). */
    const std::string &firstViolation() const { return firstViolation_; }

    /** Kind of the first recorded violation. */
    ViolationKind firstViolationKind() const { return firstKind_; }

    /**
     * Node implicated in the first violation: for lock violations the
     * *owning* node whose mutual exclusion was broken (the holder of the
     * lock at the time), for value violations the reading node.
     * invalidNode when no violation was recorded (or no owner exists,
     * e.g. an unlock of a never-locked block).
     */
    NodeId firstViolationNode() const { return firstNode_; }

    /**
     * Stats-tree suffix of the counter the first violation incremented:
     * "checker.lockViolations" for lock violations, "checker.violations"
     * for value violations, "" when clean.  Campaign rows prepend the
     * system name and append "@node<N>" to build failing_stat.
     */
    std::string firstViolationStat() const;

    /** Expected current value of a word (for tests). */
    Word expectedValue(Addr word_addr) const;

    /** Current lock holder of a block, or invalidNode. */
    NodeId lockHolder(Addr block_addr) const;

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar readsChecked;
    stats::Scalar writesRecorded;
    stats::Scalar lockPairs;
    stats::Scalar violationCount;
    stats::Scalar lockViolations;
    /// @}

  private:
    /** One domain's private slice of the monitor during a sharded run:
     *  single-writer (its shard's worker thread), merged at the fold. */
    struct DomainState
    {
        std::unordered_map<Addr, Word> last;
        std::unordered_map<Addr, NodeId> lockHolders;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t lockPairs = 0;
        std::uint64_t violations = 0;
        std::uint64_t lockViolations = 0;

        struct Record
        {
            Tick when;
            std::string what;
            ViolationKind kind;
            NodeId owner;
        };
        /** First 64 violations in detection order (chronological:
         *  events within a domain execute in tick order). */
        std::vector<Record> records;
    };

    void violation(const std::string &what, Tick when, ViolationKind kind,
                   NodeId owner);
    void domainViolation(DomainState &d, const std::string &what, Tick when,
                         ViolationKind kind, NodeId owner);

    std::unordered_map<Addr, Word> last_;
    std::unordered_map<Addr, NodeId> lockHolders_;
    std::vector<std::string> violations_;
    Tick firstViolationTick_ = 0;
    std::string firstViolation_;
    ViolationKind firstKind_ = ViolationKind::None;
    NodeId firstNode_ = invalidNode;

    /** Non-empty only between shardByDomain() and foldShards(). */
    std::vector<DomainState> domains_;
    const AddressMap *domainMap_ = nullptr;
};

} // namespace csync

#endif // CSYNC_SYSTEM_CHECKER_HH
