#include "proc/workloads/trace.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace csync
{

std::vector<TraceEntry>
TraceWorkload::parse(std::istream &in)
{
    std::vector<TraceEntry> out;
    std::string line;
    Tick pending_think = 0;
    bool pending_hint = false;
    unsigned line_no = 0;

    // One whole unsigned operand, hex or decimal per strtoull: no sign,
    // no trailing characters, no overflow.
    auto parse_u64 = [&](const std::string &tok, const char *what) {
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(tok.c_str(), &end, 0);
        if (!std::isdigit((unsigned char)tok[0]) || *end != '\0' ||
            errno == ERANGE) {
            fatal("trace line %u: bad %s '%s'", line_no, what, tok.c_str());
        }
        return std::uint64_t(v);
    };

    while (std::getline(in, line)) {
        ++line_no;
        std::istringstream ls(line);
        std::string kind;
        if (!(ls >> kind) || kind[0] == '#')
            continue;
        auto no_more = [&]() {
            std::string extra;
            if (ls >> extra) {
                fatal("trace line %u: unexpected token '%s'", line_no,
                      extra.c_str());
            }
        };

        if (kind == "T") {
            std::string v;
            if (!(ls >> v))
                fatal("trace line %u: T needs a cycle count", line_no);
            pending_think += parse_u64(v, "cycle count");
            no_more();
            continue;
        }
        if (kind == "P") {
            no_more();
            pending_hint = true;
            continue;
        }

        std::string a, v;
        if (!(ls >> a))
            fatal("trace line %u: missing address", line_no);

        TraceEntry e;
        e.think = pending_think;
        pending_think = 0;
        e.op.addr = parse_u64(a, "address");
        e.op.privateHint = pending_hint;
        pending_hint = false;

        auto need_value = [&]() {
            if (!(ls >> v))
                fatal("trace line %u: missing value", line_no);
            return Word(parse_u64(v, "value"));
        };

        if (kind == "R") {
            e.op.type = OpType::Read;
        } else if (kind == "W") {
            e.op.type = OpType::Write;
            e.op.value = need_value();
        } else if (kind == "A") {
            e.op.type = OpType::Rmw;
            e.op.value = need_value();
        } else if (kind == "L") {
            e.op.type = OpType::LockRead;
        } else if (kind == "U") {
            e.op.type = OpType::UnlockWrite;
            e.op.value = need_value();
        } else if (kind == "N") {
            e.op.type = OpType::WriteNoFetch;
            e.op.value = need_value();
        } else {
            fatal("trace line %u: unknown op '%s'", line_no,
                  kind.c_str());
        }
        no_more();
        out.push_back(e);
    }
    return out;
}

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
