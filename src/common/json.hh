/**
 * @file
 * Minimal JSON value tree, writer, and parser (no third-party deps).
 *
 * Backs the machine-readable artifacts the `mirage` CLI emits (sweep
 * results, transpile reports) and reads back (`mirage report`). Design
 * points: object keys keep insertion order so dumps are deterministic
 * and diffable across runs; numbers round-trip exactly (integral values
 * print as integers, other doubles with the shortest representation
 * that strtod recovers bit-identically); parse errors carry line/column
 * diagnostics so malformed artifacts fail loudly and actionably.
 */

#ifndef MIRAGE_COMMON_JSON_HH
#define MIRAGE_COMMON_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mirage::json {

/**
 * 2^53: numbers are doubles, which hold every integer up to here
 * exactly. Integers a report must reproduce (seeds) are bounded by it.
 */
inline constexpr uint64_t kMaxExactInteger = uint64_t(1) << 53;

/** Malformed-document error with 1-based line/column position. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(int line, int column, const std::string &message);

    int line() const { return line_; }
    int column() const { return column_; }

  private:
    int line_;
    int column_;
};

/**
 * One JSON value: null, bool, number, string, array, or object.
 * Objects preserve key insertion order (deterministic dumps).
 */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), num_(d) {}
    Value(int i) : kind_(Kind::Number), num_(i) {}
    Value(int64_t i) : kind_(Kind::Number), num_(double(i)) {}
    Value(uint64_t i) : kind_(Kind::Number), num_(double(i)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; panic on kind mismatch (internal misuse). */
    bool asBool() const;
    double asNumber() const;
    int64_t asInt() const;
    const std::string &asString() const;

    // --- arrays ------------------------------------------------------------
    size_t size() const;
    const Value &at(size_t i) const;
    /** Append to an array; the value must be an array. */
    void push(Value v);

    // --- objects -----------------------------------------------------------
    const std::vector<std::pair<std::string, Value>> &members() const;
    /** Set (insert or overwrite) a key; the value must be an object. */
    void set(const std::string &key, Value v);
    /** Member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;
    bool contains(const std::string &key) const { return find(key); }
    /**
     * Member access; panics when absent — use find() for optional keys.
     */
    const Value &operator[](const std::string &key) const;

    /**
     * Serialize. indent > 0 pretty-prints with that many spaces per
     * level and a trailing newline; indent == 0 emits one compact line.
     */
    std::string dump(int indent = 2) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

/** Parse a JSON document (throws ParseError on malformed input). */
Value parse(const std::string &text);

/**
 * Format a double exactly: integral values in +/-2^53 print without a
 * fraction, everything else with the shortest digit string strtod
 * parses back bit-identically. NaN/Inf (not representable in JSON)
 * print as null.
 */
std::string formatNumber(double v);

/** Escape and quote a string for embedding in a JSON document. */
std::string quote(const std::string &s);

} // namespace mirage::json

#endif // MIRAGE_COMMON_JSON_HH
