#include "system/scenario.hh"

namespace csync
{

Scenario::Scenario(const SystemConfig &cfg, bool narrate)
    : sys_(std::make_unique<System>(cfg)), slots_(cfg.numProcessors),
      narrate_(narrate)
{
    if (narrate_) {
        Trace::enableAll();
        Trace::setSink([this](std::uint64_t when, TraceFlag flag,
                              const std::string &who,
                              const std::string &what) {
            log_.push_back(csprintf("%6llu %-8s %-12s %s",
                                    (unsigned long long)when,
                                    traceFlagName(flag), who.c_str(),
                                    what.c_str()));
        });
    }
}

Scenario::~Scenario()
{
    if (narrate_)
        Trace::reset();
}

void
Scenario::note(const std::string &line)
{
    if (narrate_)
        log_.push_back("       --      --           " + line);
}

AccessResult
Scenario::run(unsigned p, const MemOp &op)
{
    AccessResult r;
    if (!tryRun(p, op, &r)) {
        fatal("scenario: op %s @%llx on cache%u did not complete",
              opTypeName(op.type), (unsigned long long)op.addr, p);
    }
    return r;
}

bool
Scenario::tryRun(unsigned p, const MemOp &op, AccessResult *out)
{
    issue(p, op);
    settle();
    return pendingCompleted(p, out);
}

void
Scenario::issue(unsigned p, const MemOp &op)
{
    Slot &slot = slots_.at(p);
    sim_assert(!busy(p), "scenario: processor %u already has a pending op",
               p);
    slot.issued = true;
    slot.completed = false;

    if (narrate_) {
        bool writes = op.type == OpType::Write ||
                      op.type == OpType::UnlockWrite ||
                      op.type == OpType::WriteNoFetch ||
                      op.type == OpType::Rmw;
        note(csprintf("processor %u issues %s @%llx%s", p,
                      opTypeName(op.type), (unsigned long long)op.addr,
                      writes ? csprintf(" value=%llu",
                                        (unsigned long long)op.value)
                                   .c_str()
                             : ""));
    }

    unsigned home = unsigned(sys_->addressMap().switchFor(op.addr));
    sys_->cache(p, home).access(op, [&slot](const AccessResult &r) {
        slot.completed = true;
        slot.result = r;
    });
}

bool
Scenario::busy(unsigned p) const
{
    const Slot &slot = slots_.at(p);
    return slot.issued && !slot.completed;
}

bool
Scenario::pendingCompleted(unsigned p, AccessResult *out) const
{
    const Slot &slot = slots_.at(p);
    if (slot.completed && out)
        *out = slot.result;
    return slot.completed;
}

void
Scenario::settle()
{
    EventQueue &eq = sys_->eventq();
    eq.runBounded(eq.now() + kSettleBudget, ~std::uint64_t(0));
    if (!eq.empty())
        stalled_ = true;
}

} // namespace csync
