#include "serve/json.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/logging.hh"

namespace hypar::serve {

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::kBool)
        util::fatal("json: expected a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::kNumber)
        util::fatal("json: expected a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::kString)
        util::fatal("json: expected a string");
    return string_;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    if (kind_ != Kind::kArray)
        util::fatal("json: expected an array");
    return array_;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    if (kind_ != Kind::kObject)
        util::fatal("json: expected an object");
    return object_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    const auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
}

/** Strict recursive-descent parser over one string_view. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after the JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        util::fatal("json: " + what + " at byte " + std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        const char c = peek();
        JsonValue v;
        switch (c) {
          case '{':
          case '[': {
            if (depth_ == kMaxJsonDepth)
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth) + " levels");
            ++depth_;
            JsonValue nested = c == '{' ? parseObject() : parseArray();
            --depth_;
            return nested;
          }
          case '"':
            v.kind_ = JsonValue::Kind::kString;
            v.string_ = parseString();
            return v;
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::kBool;
            v.bool_ = true;
            return v;
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::kBool;
            v.bool_ = false;
            return v;
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return v;
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind_ = JsonValue::Kind::kObject;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            if (!v.object_.emplace(std::move(key), parseValue()).second)
                fail("duplicate object key");
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind_ = JsonValue::Kind::kArray;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array_.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': appendUnicodeEscape(out); break;
              default: fail("unknown escape");
            }
        }
    }

    std::uint32_t
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("bad \\u escape digit");
        }
        return value;
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        std::uint32_t cp = parseHex4();
        if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: require the paired low surrogate.
            if (!consumeLiteral("\\u"))
                fail("unpaired surrogate");
            const std::uint32_t lo = parseHex4();
            if (lo < 0xdc00 || lo > 0xdfff)
                fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
        }
        // UTF-8 encode.
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    JsonValue
    parseNumber()
    {
        // Enforce the JSON number grammar exactly — std::from_chars is
        // laxer (it accepts strtod-isms like "01" and "1.").
        const std::size_t start = pos_;
        const auto digits = [&] {
            const std::size_t first = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ - first;
        };
        if (peek() == '-')
            ++pos_;
        if (peek() == '0') {
            ++pos_; // a leading zero must stand alone
        } else if (digits() == 0) {
            pos_ = start;
            fail("bad number");
        }
        if (peek() == '.') {
            ++pos_;
            if (digits() == 0) {
                pos_ = start;
                fail("bad number");
            }
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (digits() == 0) {
                pos_ = start;
                fail("bad number");
            }
        }
        double value = 0.0;
        const auto [end, ec] = std::from_chars(
            text_.data() + start, text_.data() + pos_, value);
        if (ec != std::errc{} || end != text_.data() + pos_) {
            pos_ = start;
            fail("bad number");
        }
        JsonValue v;
        v.kind_ = JsonValue::Kind::kNumber;
        v.number_ = value;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; //!< arrays/objects currently open
};

JsonValue
JsonValue::parse(std::string_view text)
{
    return JsonParser(text).parseDocument();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace hypar::serve
