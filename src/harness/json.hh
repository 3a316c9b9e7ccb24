/**
 * @file
 * Minimal JSON document model for the campaign harness: parse, build,
 * query, serialize.  Object keys keep insertion order so serialized
 * documents are deterministic.  Deliberately tiny and dependency-free —
 * campaign files and sweep specs are small, so clarity beats speed.
 */

#ifndef CSYNC_HARNESS_JSON_HH
#define CSYNC_HARNESS_JSON_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace csync
{
namespace harness
{

/** One JSON value (null, bool, number, string, array, or object). */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double v) : type_(Type::Number), num_(v) {}
    Json(int v) : type_(Type::Number), num_(v) {}
    Json(unsigned v) : type_(Type::Number), num_(v) {}
    Json(std::uint64_t v) : type_(Type::Number), num_(double(v)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    /** An empty array / object. */
    static Json array();
    static Json object();

    /**
     * Parse @p text.
     * @param[out] err On failure: a message with 1-based line/column.
     * @return the document, or a Null value on failure (check @p err).
     */
    static Json parse(const std::string &text, std::string *err);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool(bool dflt = false) const;
    double asNumber(double dflt = 0.0) const;
    const std::string &asString() const;

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    void push(Json v);

    /** Object access: value for @p key, or a shared Null if absent. */
    const Json &operator[](const std::string &key) const;
    bool has(const std::string &key) const;
    void set(const std::string &key, Json v);
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Serialize.  @p indent < 0 yields a compact single line; >= 0
     * pretty-prints with two-space steps starting at that indentation.
     */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/**
 * Read @p v as an unsigned integer of type T.  Only an integral,
 * non-negative number no larger than T's maximum is accepted: casting a
 * fraction truncates it, a too-large value wraps, and a negative one is
 * undefined behaviour.
 *
 * @param what Names the field in the error, e.g. "\"seed\"" or
 *             "\"seeds\"[2]".
 * @param[out] err On failure: "<what> must be an integer in 0..<max>".
 */
template <typename T>
bool
readUnsigned(const Json &v, const std::string &what, T *out,
             std::string *err)
{
    static_assert(std::is_unsigned_v<T>, "readUnsigned needs an unsigned T");
    // 2^digits is exact in a double, and every integral double below it
    // is exactly representable in T.
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double d = v.asNumber(-1);
    if (!v.isNumber() || !(d >= 0 && d < limit) || d != std::floor(d)) {
        if (err) {
            *err = what + " must be an integer in 0.." +
                   std::to_string(std::numeric_limits<T>::max());
        }
        return false;
    }
    *out = T(d);
    return true;
}

/**
 * Read an address: an integer as readUnsigned() accepts it, or a
 * string that starts with a digit and that strtoull() reads whole in
 * base 0 (decimal, 0x hex, or 0-prefixed octal) without overflow.
 */
bool readAddress(const Json &v, const std::string &what,
                 std::uint64_t *out, std::string *err);

} // namespace harness
} // namespace csync

#endif // CSYNC_HARNESS_JSON_HH
