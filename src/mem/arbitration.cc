#include "mem/arbitration.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace csync
{

namespace
{

/**
 * The paper's discipline: scan node ids circularly starting just after
 * the last winner, earliest queue position breaking exact ties.  This
 * reproduces the historical Bus::arbitrate() loop bit for bit.
 */
class RoundRobinPolicy : public ArbitrationPolicy
{
  public:
    std::string name() const override { return "round_robin"; }

    std::size_t
    pick(const std::vector<ArbRequest> &reqs, unsigned numClients) override
    {
        int n = int(numClients);
        std::size_t best_idx = 0;
        int best_key = n + 1;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            int id = reqs[i].node;
            int key = ((id - last_ - 1) % n + n) % n;
            if (key < best_key) {
                best_key = key;
                best_idx = i;
            }
        }
        return best_idx;
    }

    void onGrant(NodeId node, TrafficClass) override { last_ = node; }

    void
    checkpoint(CheckpointWords &out) const override
    {
        out.push_back(std::uint64_t(last_));
    }

    void restore(WordReader &in) override { last_ = NodeId(in.next()); }

  private:
    NodeId last_ = invalidNode;
};

/**
 * First-come-first-served: the oldest posted request wins; among
 * requests posted on the same tick the earliest queue position (i.e.
 * posting order) wins.
 */
class FcfsPolicy : public ArbitrationPolicy
{
  public:
    std::string name() const override { return "fcfs"; }

    std::size_t
    pick(const std::vector<ArbRequest> &reqs, unsigned) override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < reqs.size(); ++i)
            if (reqs[i].posted < reqs[best].posted)
                best = i;
        return best;
    }
};

/**
 * Nikolov & Lerato's alternating-priority discipline, mapped onto the
 * paper's two traffic systems: the bus alternates which class (sync
 * hard atoms vs ordinary data) it prefers, serving round-robin within
 * the preferred class and falling back to the other class when no
 * preferred request is pending.  Sync is preferred first, so a lone
 * hard atom is never made to wait behind a data stream.
 */
class AlternatingPriorityPolicy : public ArbitrationPolicy
{
  public:
    std::string name() const override { return "alternating_priority"; }

    std::size_t
    pick(const std::vector<ArbRequest> &reqs, unsigned numClients) override
    {
        TrafficClass want =
            preferSync_ ? TrafficClass::Sync : TrafficClass::Data;
        bool have_want = std::any_of(
            reqs.begin(), reqs.end(),
            [want](const ArbRequest &r) { return r.cls == want; });
        // No preferred request pending: serve the other class instead
        // of idling (every candidate is of that class then).
        TrafficClass serving = have_want ? want
                               : want == TrafficClass::Sync
                                   ? TrafficClass::Data
                                   : TrafficClass::Sync;
        // Rotation is per class, so an interleaved grant of the other
        // class can never reset this class's round-robin scan (which
        // would pin the grant on one node and starve its neighbours).
        NodeId last = last_[unsigned(serving)];
        int n = int(numClients);
        std::size_t best_idx = 0;
        int best_key = n + 1;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (reqs[i].cls != serving)
                continue;
            int key = ((int(reqs[i].node) - last - 1) % n + n) % n;
            if (key < best_key) {
                best_key = key;
                best_idx = i;
            }
        }
        return best_idx;
    }

    void
    onGrant(NodeId node, TrafficClass cls) override
    {
        last_[unsigned(cls)] = node;
        // Alternate: after serving one class, prefer the other.
        preferSync_ = cls == TrafficClass::Data;
    }

    void
    checkpoint(CheckpointWords &out) const override
    {
        for (NodeId last : last_)
            out.push_back(std::uint64_t(last));
        out.push_back(preferSync_);
    }

    void
    restore(WordReader &in) override
    {
        for (NodeId &last : last_)
            last = NodeId(in.next());
        preferSync_ = in.next() != 0;
    }

  private:
    NodeId last_[kNumTrafficClasses] = {invalidNode, invalidNode};
    bool preferSync_ = true;
};

} // namespace

std::unique_ptr<ArbitrationPolicy>
ArbitrationRegistry::make(const std::string &name)
{
    if (name == "round_robin")
        return std::make_unique<RoundRobinPolicy>();
    if (name == "fcfs")
        return std::make_unique<FcfsPolicy>();
    if (name == "alternating_priority")
        return std::make_unique<AlternatingPriorityPolicy>();
    fatal("unknown arbitration '%s'", name.c_str());
}

bool
ArbitrationRegistry::known(const std::string &name)
{
    const auto &all = names();
    return std::find(all.begin(), all.end(), name) != all.end();
}

const std::vector<std::string> &
ArbitrationRegistry::names()
{
    static const std::vector<std::string> all = {
        "alternating_priority",
        "fcfs",
        "round_robin",
    };
    return all;
}

} // namespace csync
