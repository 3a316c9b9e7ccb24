#include "proc/workloads/trace.hh"

#include "sim/logging.hh"

namespace csync
{

NextStatus
TraceWorkload::next(MemOp &op, Tick &think)
{
    if (pos_ >= entries_.size())
        return NextStatus::Finished;
    op = entries_[pos_].op;
    think = entries_[pos_].think;
    ++pos_;
    return NextStatus::Op;
}

void
TraceWorkload::onResult(const MemOp &, const AccessResult &r)
{
    results_.push_back(r);
}

std::string
TraceWorkload::describe() const
{
    return csprintf("trace(%zu ops)", entries_.size());
}

} // namespace csync
