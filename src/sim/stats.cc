#include "sim/stats.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace csync
{
namespace stats
{

Info::Info(Group *parent, std::string name, std::string desc, Kind kind)
    : name_(std::move(name)), desc_(std::move(desc)), kind_(kind)
{
    sim_assert(parent != nullptr, "stat '%s' has no group", name_.c_str());
    parent->addStat(this);
}

namespace
{

void
printLine(std::ostream &os, const std::string &key, double value,
          const std::string &desc)
{
    os << std::left << std::setw(44) << key << " " << std::right
       << std::setw(14) << std::setprecision(6) << value << "  # " << desc
       << "\n";
}

} // anonymous namespace

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix + name(), value_, desc());
}

Histogram::Histogram(Group *parent, std::string name, std::string desc,
                     std::uint64_t bucket_size, std::size_t buckets)
    : Info(parent, std::move(name), std::move(desc), Kind::Histogram),
      bucketSize_(bucket_size), buckets_(buckets, 0)
{
    sim_assert(bucket_size > 0, "histogram bucket size must be positive");
    if ((bucket_size & (bucket_size - 1)) == 0) {
        while ((std::uint64_t(1) << shift_) < bucket_size)
            ++shift_;
    }
}

void
Histogram::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix + name() + ".count", double(count_), desc());
    printLine(os, prefix + name() + ".mean", mean(), "sample mean");
    printLine(os, prefix + name() + ".min", double(min()), "minimum");
    printLine(os, prefix + name() + ".max", double(max_), "maximum");
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        printLine(os,
                  prefix + name() + ".bucket" + std::to_string(i),
                  double(buckets_[i]),
                  "[" + std::to_string(i * bucketSize_) + ", " +
                      std::to_string((i + 1) * bucketSize_) + ")");
    }
    if (overflow_)
        printLine(os, prefix + name() + ".overflow", double(overflow_),
                  "samples above last bucket");
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = 0;
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

void
Histogram::checkpoint(CheckpointWords &out) const
{
    out.insert(out.end(), buckets_.begin(), buckets_.end());
    out.push_back(overflow_);
    out.push_back(count_);
    putDouble(out, sum_);
    out.push_back(min_);
    out.push_back(max_);
}

void
Histogram::restore(WordReader &in)
{
    for (auto &b : buckets_)
        b = in.next();
    overflow_ = in.next();
    count_ = in.next();
    sum_ = in.nextDouble();
    min_ = in.next();
    max_ = in.next();
}

Formula::Formula(Group *parent, std::string name, std::string desc, Fn fn)
    : Info(parent, std::move(name), std::move(desc), Kind::Formula),
      fn_(std::move(fn))
{
}

void
Formula::print(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix + name(), value(), desc());
}

Group::Group(std::string name, Group *parent) : name_(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

void
Group::addStat(Info *info)
{
    stats_.push_back(info);
}

void
Group::addChild(Group *child)
{
    children_.push_back(child);
}

void
Group::dump(std::ostream &os, const std::string &prefix) const
{
    std::string p = prefix.empty() ? name_ + "." : prefix + name_ + ".";
    for (const auto *s : stats_)
        s->print(os, p);
    for (const auto *c : children_)
        c->dump(os, p);
}

void
Group::resetStats()
{
    for (auto *s : stats_)
        s->reset();
    for (auto *c : children_)
        c->resetStats();
}

void
Group::checkpointStats(CheckpointWords &out) const
{
    for (const auto *s : stats_)
        s->checkpoint(out);
    for (const auto *c : children_)
        c->checkpointStats(out);
}

void
Group::restoreStats(WordReader &in)
{
    for (auto *s : stats_)
        s->restore(in);
    for (auto *c : children_)
        c->restoreStats(in);
}

double
Group::lookup(const std::string &stat_name) const
{
    auto dot = stat_name.find('.');
    if (dot == std::string::npos) {
        for (const auto *s : stats_) {
            if (s->name() == stat_name) {
                switch (s->kind()) {
                  case Kind::Scalar:
                    return static_cast<const Scalar *>(s)->value();
                  case Kind::Formula:
                    return static_cast<const Formula *>(s)->value();
                  case Kind::Histogram:
                    return double(
                        static_cast<const Histogram *>(s)->count());
                }
            }
        }
        return 0.0;
    }
    std::string head = stat_name.substr(0, dot);
    std::string tail = stat_name.substr(dot + 1);
    for (const auto *c : children_) {
        if (c->groupName() == head)
            return c->lookup(tail);
    }
    return 0.0;
}

} // namespace stats
} // namespace csync
