/**
 * @file
 * Strict command-line value parsing shared by the csync-* tools.
 *
 * A value is one whole token: an unsigned integer is decimal digits
 * only (no sign, space, hex prefix or exponent) and must fit its type;
 * a real is a finite unsigned decimal.  Both are range-checked.  On
 * failure the error names the flag and the offending token, and the
 * tools turn it into exit status 2 instead of running with a truncated
 * or wrapped-around value.
 */

#ifndef CSYNC_HARNESS_CLI_ARGS_HH
#define CSYNC_HARNESS_CLI_ARGS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace csync
{
namespace harness
{

/** Split a comma list, dropping empty items.
 *  @return false when no item remains. */
bool splitList(const std::string &arg, std::vector<std::string> *out);

/**
 * Parse @p tok, the value of @p flag, as an unsigned integer in
 * [lo, hi].  @return false with *err naming flag and token.
 */
bool parseUnsignedArg(const std::string &flag, const std::string &tok,
                      std::uint64_t *out, std::string *err,
                      std::uint64_t lo = 0,
                      std::uint64_t hi =
                          std::numeric_limits<std::uint64_t>::max());

/** As above, for an `unsigned` destination (hi capped to its max). */
bool parseUnsignedArg(const std::string &flag, const std::string &tok,
                      unsigned *out, std::string *err,
                      std::uint64_t lo = 0,
                      std::uint64_t hi =
                          std::numeric_limits<unsigned>::max());

/** Parse @p tok as a finite unsigned real in [lo, hi]. */
bool parseDoubleArg(const std::string &flag, const std::string &tok,
                    double *out, std::string *err, double lo = 0,
                    double hi = std::numeric_limits<double>::max());

/**
 * Parse a comma list of values, each under the rules above with the
 * type's full range.  @return false on an empty list or a bad item.
 */
template <typename T>
bool
parseListArg(const std::string &flag, const std::string &tok,
             std::vector<T> *out, std::string *err)
{
    std::vector<std::string> parts;
    if (!splitList(tok, &parts)) {
        *err = flag + ": empty list";
        return false;
    }
    out->clear();
    for (const auto &p : parts) {
        T v{};
        bool ok;
        if constexpr (std::is_floating_point_v<T>)
            ok = parseDoubleArg(flag, p, &v, err);
        else
            ok = parseUnsignedArg(flag, p, &v, err);
        if (!ok)
            return false;
        out->push_back(v);
    }
    return true;
}

} // namespace harness
} // namespace csync

#endif // CSYNC_HARNESS_CLI_ARGS_HH
