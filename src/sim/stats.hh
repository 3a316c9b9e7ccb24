/**
 * @file
 * Small statistics package in the spirit of gem5's: named scalars,
 * histograms and derived formulas registered into groups that can be
 * dumped as aligned text tables.  Every subsystem exposes its counters
 * through this so benches can print paper-style rows.
 */

#ifndef CSYNC_SIM_STATS_HH
#define CSYNC_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"

namespace csync
{
namespace stats
{

class Group;

/** Concrete statistic kind, for dispatch without RTTI on the hot
 *  serialization/lookup paths. */
enum class Kind
{
    Scalar,
    Histogram,
    Formula
};

/** Common base: a named, described statistic belonging to a group. */
class Info
{
  public:
    Info(Group *parent, std::string name, std::string desc, Kind kind);
    virtual ~Info() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }
    Kind kind() const { return kind_; }

    /** Render the value(s) into one or more "name value # desc" lines. */
    virtual void print(std::ostream &os, const std::string &prefix) const = 0;

    /** Reset to the freshly-constructed value. */
    virtual void reset() = 0;

    /** Append the current value(s) to a quiescent checkpoint. */
    virtual void checkpoint(CheckpointWords &out) const = 0;

    /** Restore the value(s) checkpoint() appended. */
    virtual void restore(WordReader &in) = 0;

  private:
    std::string name_;
    std::string desc_;
    Kind kind_;
};

/** A double-valued counter/accumulator. */
class Scalar : public Info
{
  public:
    Scalar(Group *parent, std::string name, std::string desc)
        : Info(parent, std::move(name), std::move(desc), Kind::Scalar)
    {
    }

    Scalar &operator++() { value_ += 1; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override { value_ = 0; }
    void checkpoint(CheckpointWords &out) const override
    {
        putDouble(out, value_);
    }
    void restore(WordReader &in) override { value_ = in.nextDouble(); }

  private:
    double value_ = 0;
};

/** A fixed-bucket histogram with underflow/overflow and moments. */
class Histogram : public Info
{
  public:
    /**
     * @param parent Owning group.
     * @param name Statistic name.
     * @param desc Description.
     * @param bucket_size Width of each bucket.
     * @param buckets Number of buckets starting at zero.
     */
    Histogram(Group *parent, std::string name, std::string desc,
              std::uint64_t bucket_size, std::size_t buckets);

    /**
     * Record one sample.  The hot path is branch-light: min/max update
     * via conditional moves, and power-of-two bucket sizes (the common
     * case) index with a shift instead of a 64-bit division.
     */
    void
    sample(std::uint64_t value)
    {
        std::size_t idx = shift_ ? std::size_t(value >> shift_)
                                 : std::size_t(value / bucketSize_);
        if (idx < buckets_.size())
            ++buckets_[idx];
        else
            ++overflow_;
        min_ = value < min_ ? value : min_;
        max_ = value > max_ ? value : max_;
        ++count_;
        sum_ += double(value);
    }

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucketSize() const { return bucketSize_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override;
    void checkpoint(CheckpointWords &out) const override;
    void restore(WordReader &in) override;

  private:
    std::uint64_t bucketSize_;
    /** log2(bucketSize_) when it is a power of two, else 0 (divide). */
    unsigned shift_ = 0;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    /** Starts at max so sample() can take an unconditional min. */
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/** A lazily evaluated derived value (e.g. a ratio of two scalars). */
class Formula : public Info
{
  public:
    using Fn = std::function<double()>;

    Formula(Group *parent, std::string name, std::string desc, Fn fn);

    double value() const { return fn_ ? fn_() : 0.0; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override {}
    /** Derived: nothing of its own to save. */
    void checkpoint(CheckpointWords &) const override {}
    void restore(WordReader &) override {}

  private:
    Fn fn_;
};

/**
 * A named collection of statistics, possibly with child groups, mirroring
 * the SimObject hierarchy.
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);
    virtual ~Group() = default;

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return name_; }

    /** Register a statistic (called by Info's constructor). */
    void addStat(Info *info);

    /** Register a child group. */
    void addChild(Group *child);

    /** Dump this group and all children to @p os. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Reset this group's stats and all children. */
    void resetStats();

    /** Append every statistic's value, this group's then its
     *  children's, to a quiescent checkpoint. */
    void checkpointStats(CheckpointWords &out) const;

    /** Restore the values checkpointStats() appended (same tree). */
    void restoreStats(WordReader &in);

    /** Look up a scalar/formula value by dotted path; 0 if absent. */
    double lookup(const std::string &stat_name) const;

    /** Registered statistics, in registration order (serializers). */
    const std::vector<Info *> &statsList() const { return stats_; }

    /** Child groups, in registration order (serializers). */
    const std::vector<Group *> &childGroups() const { return children_; }

  private:
    std::string name_;
    std::vector<Info *> stats_;
    std::vector<Group *> children_;
};

} // namespace stats
} // namespace csync

#endif // CSYNC_SIM_STATS_HH
