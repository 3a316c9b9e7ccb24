/**
 * @file
 * Fixed-sequence workload: a list of operations built programmatically
 * (directed tests, examples), each with the think time before it.
 * Captured traces from files take the `.ctrace` path instead
 * (src/trace/).
 */

#ifndef CSYNC_PROC_WORKLOADS_TRACE_HH
#define CSYNC_PROC_WORKLOADS_TRACE_HH

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
