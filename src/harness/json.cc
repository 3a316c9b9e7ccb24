#include "harness/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/stats_json.hh"

namespace csync
{
namespace harness
{

namespace
{

const Json &
nullValue()
{
    static const Json v;
    return v;
}

/** Recursive-descent JSON parser tracking line/column for messages. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {}

    Json
    run()
    {
        Json v = value();
        if (failed_)
            return Json();
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing garbage after document");
            return Json();
        }
        return v;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (failed_)
            return;
        failed_ = true;
        if (err_) {
            *err_ = csprintf("JSON error at line %u column %u: %s",
                             line_, col_, what.c_str());
        }
    }

    bool
    eof() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        return eof() ? '\0' : text_[pos_];
    }

    char
    get()
    {
        char c = peek();
        ++pos_;
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return c;
    }

    void
    skipWs()
    {
        while (!eof()) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                get();
            else
                break;
        }
    }

    bool
    expect(char c)
    {
        skipWs();
        if (peek() != c) {
            fail(csprintf("expected '%c'", c));
            return false;
        }
        get();
        return true;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (peek() != *p) {
                fail(csprintf("bad literal (expected \"%s\")", word));
                return false;
            }
            get();
        }
        return true;
    }

    Json
    value()
    {
        skipWs();
        if (eof()) {
            fail("unexpected end of input");
            return Json();
        }
        char c = peek();
        switch (c) {
          case '{': return object();
          case '[': return array();
          case '"': return Json(string());
          case 't': return literal("true") ? Json(true) : Json();
          case 'f': return literal("false") ? Json(false) : Json();
          case 'n': return literal("null") ? Json(nullptr) : Json();
          default:
            if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
                return number();
            fail(csprintf("unexpected character '%c'", c));
            return Json();
        }
    }

    Json
    object()
    {
        Json obj = Json::object();
        get(); // '{'
        skipWs();
        if (peek() == '}') {
            get();
            return obj;
        }
        while (!failed_) {
            skipWs();
            if (peek() != '"') {
                fail("expected object key string");
                break;
            }
            std::string key = string();
            if (failed_)
                break;
            if (!expect(':'))
                break;
            Json v = value();
            if (failed_)
                break;
            obj.set(key, std::move(v));
            skipWs();
            char c = peek();
            if (c == ',') {
                get();
                continue;
            }
            if (c == '}') {
                get();
                break;
            }
            fail("expected ',' or '}' in object");
        }
        return obj;
    }

    Json
    array()
    {
        Json arr = Json::array();
        get(); // '['
        skipWs();
        if (peek() == ']') {
            get();
            return arr;
        }
        while (!failed_) {
            Json v = value();
            if (failed_)
                break;
            arr.push(std::move(v));
            skipWs();
            char c = peek();
            if (c == ',') {
                get();
                continue;
            }
            if (c == ']') {
                get();
                break;
            }
            fail("expected ',' or ']' in array");
        }
        return arr;
    }

    std::string
    string()
    {
        std::string out;
        get(); // '"'
        while (true) {
            if (eof()) {
                fail("unterminated string");
                return out;
            }
            char c = get();
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (eof()) {
                fail("unterminated escape");
                return out;
            }
            char e = get();
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (eof() ||
                        !std::isxdigit(
                            static_cast<unsigned char>(peek()))) {
                        fail("bad \\u escape");
                        return out;
                    }
                    char h = get();
                    code = code * 16 +
                           unsigned(h <= '9' ? h - '0'
                                             : (std::tolower(h) - 'a') +
                                                   10);
                }
                // UTF-8 encode the BMP code point (surrogate pairs are
                // not needed for stat names; pass them through raw).
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xc0 | (code >> 6));
                    out += char(0x80 | (code & 0x3f));
                } else {
                    out += char(0xe0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3f));
                    out += char(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail(csprintf("bad escape '\\%c'", e));
                return out;
            }
        }
    }

    Json
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            get();
        while (!eof() &&
               (std::isdigit(static_cast<unsigned char>(peek())) ||
                peek() == '.' || peek() == 'e' || peek() == 'E' ||
                peek() == '+' || peek() == '-')) {
            get();
        }
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || tok.empty()) {
            fail(csprintf("bad number \"%s\"", tok.c_str()));
            return Json();
        }
        return Json(v);
    }

    const std::string &text_;
    std::string *err_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
    unsigned col_ = 1;
    bool failed_ = false;
};

} // anonymous namespace

Json
Json::array()
{
    Json v;
    v.type_ = Type::Array;
    return v;
}

Json
Json::object()
{
    Json v;
    v.type_ = Type::Object;
    return v;
}

Json
Json::parse(const std::string &text, std::string *err)
{
    if (err)
        err->clear();
    return Parser(text, err).run();
}

bool
Json::asBool(bool dflt) const
{
    return isBool() ? bool_ : dflt;
}

double
Json::asNumber(double dflt) const
{
    return isNumber() ? num_ : dflt;
}

const std::string &
Json::asString() const
{
    static const std::string empty;
    return isString() ? str_ : empty;
}

std::size_t
Json::size() const
{
    if (isArray())
        return arr_.size();
    if (isObject())
        return obj_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    if (!isArray() || i >= arr_.size())
        return nullValue();
    return arr_[i];
}

void
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    sim_assert(isArray(), "push on non-array JSON value");
    arr_.push_back(std::move(v));
}

const Json &
Json::operator[](const std::string &key) const
{
    if (isObject()) {
        for (const auto &kv : obj_) {
            if (kv.first == key)
                return kv.second;
        }
    }
    return nullValue();
}

bool
Json::has(const std::string &key) const
{
    if (!isObject())
        return false;
    for (const auto &kv : obj_) {
        if (kv.first == key)
            return true;
    }
    return false;
}

void
Json::set(const std::string &key, Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    sim_assert(isObject(), "set on non-object JSON value");
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    static const std::vector<std::pair<std::string, Json>> empty;
    return isObject() ? obj_ : empty;
}

void
Json::dumpTo(std::string &out, int indent) const
{
    auto pad = [&](int n) {
        if (n >= 0)
            out.append(std::size_t(n), ' ');
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        out += stats::jsonNumber(num_);
        break;
      case Type::String:
        out += '"';
        out += stats::jsonEscape(str_);
        out += '"';
        break;
      case Type::Array: {
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            if (indent >= 0) {
                out += '\n';
                pad(indent + 2);
            }
            arr_[i].dumpTo(out, indent >= 0 ? indent + 2 : -1);
        }
        if (indent >= 0) {
            out += '\n';
            pad(indent);
        }
        out += ']';
        break;
      }
      case Type::Object: {
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &kv : obj_) {
            if (!first)
                out += ',';
            first = false;
            if (indent >= 0) {
                out += '\n';
                pad(indent + 2);
            }
            out += '"';
            out += stats::jsonEscape(kv.first);
            out += "\": ";
            kv.second.dumpTo(out, indent >= 0 ? indent + 2 : -1);
        }
        if (indent >= 0) {
            out += '\n';
            pad(indent);
        }
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    if (indent > 0)
        out.append(std::size_t(indent), ' ');
    dumpTo(out, indent);
    return out;
}

bool
readAddress(const Json &v, const std::string &what, std::uint64_t *out,
            std::string *err)
{
    if (v.isNumber())
        return readUnsigned(v, what, out, err);
    if (v.isString()) {
        // strtoull would skip blanks, take a sign and saturate on
        // overflow; none of those is an address.
        const std::string &s = v.asString();
        char *end = nullptr;
        errno = 0;
        unsigned long long a = std::strtoull(s.c_str(), &end, 0);
        if (!s.empty() && std::isdigit((unsigned char)s[0]) &&
            *end == '\0' && errno == 0) {
            *out = a;
            return true;
        }
    }
    if (err) {
        *err = what + " must be an unsigned integer or a hex/decimal "
                      "string";
    }
    return false;
}

} // namespace harness
} // namespace csync
