/**
 * @file
 * Minimal JSON for the serving tier: a value type, a strict
 * recursive-descent parser, and a string escaper for writers.
 *
 * Scope is deliberately small — exactly what newline-delimited
 * request/response framing and the on-disk plan cache need: objects,
 * arrays, strings (with \uXXXX escapes decoded to UTF-8), numbers
 * (stored as double; the cache writes %.17g so doubles round-trip
 * bit-identically), booleans, and null. Parse errors raise
 * util::FatalError with a byte offset, so the server can turn a
 * malformed request line into an error *response* instead of dying.
 *
 * Writers in this repo emit JSON by hand (see plan_cache.cc,
 * server.cc) — the parser only has to accept what they and external
 * clients produce, and strictness is a feature: trailing garbage
 * after the top-level value is an error, which is what lets the plan
 * cache treat a truncated-then-appended file as corrupt.
 */

#ifndef HYPAR_SERVE_JSON_HH
#define HYPAR_SERVE_JSON_HH

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hypar::serve {

/**
 * Deepest array/object nesting JsonValue::parse accepts. The parser
 * recurses once per level, so the cap bounds its stack use on hostile
 * input; a deeper document is a parse error. Requests and cache
 * entries nest at most four levels (`faults.nodes[i]`).
 */
inline constexpr std::size_t kMaxJsonDepth = 64;

/** One parsed JSON value (object keys are sorted — std::map). */
class JsonValue
{
  public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isObject() const { return kind_ == Kind::kObject; }
    bool isArray() const { return kind_ == Kind::kArray; }
    bool isString() const { return kind_ == Kind::kString; }
    bool isNumber() const { return kind_ == Kind::kNumber; }
    bool isBool() const { return kind_ == Kind::kBool; }

    /** Typed accessors; fatal when the kind does not match. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * Parse one complete JSON document. Fatal (util::FatalError, with
     * the byte offset) on malformed input, trailing garbage, or
     * nesting deeper than kMaxJsonDepth.
     */
    static JsonValue parse(std::string_view text);

    // Construction helpers for tests.
    static JsonValue makeString(std::string s);
    static JsonValue makeNumber(double d);

  private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;

    friend class JsonParser;
};

/**
 * Escape a string for embedding between JSON double quotes: quotes,
 * backslashes, and control characters (the latter as \u00XX).
 */
std::string jsonEscape(std::string_view s);

} // namespace hypar::serve

#endif // HYPAR_SERVE_JSON_HH
