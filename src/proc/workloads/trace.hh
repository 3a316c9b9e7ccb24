/**
 * @file
 * Trace-replay workload: a fixed list of operations, either built
 * programmatically (directed tests, the figure scenarios) or parsed from
 * a simple text format:
 *
 *     # comment
 *     R <addr>            read
 *     W <addr> <value>    write
 *     A <addr> <value>    atomic swap (RMW)
 *     L <addr>            lock-read
 *     U <addr> <value>    unlock-write
 *     N <addr> <value>    write-no-fetch
 *     T <cycles>          think time before the next op
 *     P                   set the private (unshared) hint on the next op
 *
 * Addresses and values are unsigned, hex or decimal per strtoull.  A
 * malformed number, a missing operand or an extra token is fatal,
 * naming the line and the token.
 */

#ifndef CSYNC_PROC_WORKLOADS_TRACE_HH
#define CSYNC_PROC_WORKLOADS_TRACE_HH

#include <istream>
#include <string>
#include <vector>

#include "proc/workload.hh"

namespace csync
{

/** One trace entry. */
struct TraceEntry
{
    MemOp op;
    Tick think = 0;
};

/** Fixed-sequence workload. */
class TraceWorkload : public Workload
{
  public:
    explicit TraceWorkload(std::vector<TraceEntry> entries)
        : entries_(std::move(entries))
    {}

    /** Parse the text format; fatal on malformed input. */
    static std::vector<TraceEntry> parse(std::istream &in);

    NextStatus next(MemOp &op, Tick &think) override;
    void onResult(const MemOp &op, const AccessResult &r) override;
    std::string describe() const override;
    bool done() const override { return pos_ >= entries_.size(); }

    /** Results observed, in order. */
    const std::vector<AccessResult> &results() const { return results_; }

  private:
    std::vector<TraceEntry> entries_;
    std::size_t pos_ = 0;
    std::vector<AccessResult> results_;
};

} // namespace csync

#endif // CSYNC_PROC_WORKLOADS_TRACE_HH
