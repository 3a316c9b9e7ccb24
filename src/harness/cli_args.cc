#include "harness/cli_args.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace csync
{
namespace harness
{

bool
splitList(const std::string &arg, std::vector<std::string> *out)
{
    out->clear();
    std::string cur;
    for (char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out->push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out->push_back(cur);
    return !out->empty();
}

bool
parseUnsignedArg(const std::string &flag, const std::string &tok,
                 std::uint64_t *out, std::string *err, std::uint64_t lo,
                 std::uint64_t hi)
{
    bool digits = !tok.empty();
    for (char c : tok)
        digits = digits && c >= '0' && c <= '9';
    errno = 0;
    unsigned long long v = digits ? std::strtoull(tok.c_str(), nullptr, 10)
                                  : 0;
    if (!digits || errno == ERANGE) {
        *err = csprintf("%s: '%s' is not an unsigned integer%s",
                        flag.c_str(), tok.c_str(),
                        digits ? " that fits in 64 bits" : "");
        return false;
    }
    if (v < lo || v > hi) {
        *err = csprintf("%s: '%s' is outside %llu..%llu", flag.c_str(),
                        tok.c_str(), (unsigned long long)lo,
                        (unsigned long long)hi);
        return false;
    }
    *out = v;
    return true;
}

bool
parseUnsignedArg(const std::string &flag, const std::string &tok,
                 unsigned *out, std::string *err, std::uint64_t lo,
                 std::uint64_t hi)
{
    std::uint64_t v = 0;
    constexpr std::uint64_t max = std::numeric_limits<unsigned>::max();
    if (!parseUnsignedArg(flag, tok, &v, err, lo, hi < max ? hi : max))
        return false;
    *out = unsigned(v);
    return true;
}

bool
parseDoubleArg(const std::string &flag, const std::string &tok,
               double *out, std::string *err, double lo, double hi)
{
    // strtod alone would take a sign, leading space, "inf", "nan" and
    // hex floats ("0x10", "0x1p3").
    char *end = nullptr;
    bool decimal = !tok.empty() && ((tok[0] >= '0' && tok[0] <= '9') ||
                                    tok[0] == '.');
    for (char c : tok)
        decimal = decimal && ((c >= '0' && c <= '9') || c == '.' ||
                              c == 'e' || c == 'E' || c == '+' || c == '-');
    double v = decimal ? std::strtod(tok.c_str(), &end) : 0;
    if (!decimal || *end != '\0' || !std::isfinite(v)) {
        *err = csprintf("%s: '%s' is not an unsigned number",
                        flag.c_str(), tok.c_str());
        return false;
    }
    if (v < lo || v > hi) {
        *err = csprintf("%s: '%s' is outside %g..%g", flag.c_str(),
                        tok.c_str(), lo, hi);
        return false;
    }
    *out = v;
    return true;
}

} // namespace harness
} // namespace csync
