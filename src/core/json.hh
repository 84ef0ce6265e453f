/**
 * @file
 * Minimal JSON reading/writing for run manifests, fabric queue
 * markers and stats — the crash-safe metadata files the simulator
 * and the sweep runner leave behind. This
 * is deliberately a subset implementation (objects, arrays, strings,
 * finite numbers, booleans, null; \uXXXX escapes limited to ASCII)
 * sized for manifests we write ourselves, but hardened for hostile
 * bytes: nesting is capped, duplicate keys and invalid UTF-8 are
 * rejected, and numbers must fit a double. Malformed input throws a
 * typed ParseError (surface: json, exit code 8) with byte offset and
 * line/column: a replay or resume decision made from a
 * half-understood manifest would silently drop results.
 */

#ifndef TEXDIST_CORE_JSON_HH
#define TEXDIST_CORE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace texdist
{

/** One JSON value; objects preserve member order. */
class JsonValue
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

    JsonValue() = default;

    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return _kind; }

    /** Typed accessors; throw ParseError on a kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    /** Member lookup; throws ParseError when the key is missing. */
    const JsonValue &at(const std::string &key) const;

    /** Append to an array value. */
    void append(JsonValue v);

    /** Set (or replace) an object member. */
    void set(const std::string &key, JsonValue v);

    /** Render with 2-space indentation and a trailing newline. */
    std::string dump() const;

    /**
     * Parse a document; throws ParseError (with byte offset and
     * line/column) on malformed input.
     */
    static JsonValue parse(const std::string &text);

    /**
     * Parse a file; throws ParseError when unreadable or malformed,
     * annotated with @p path.
     */
    static JsonValue parseFile(const std::string &path);

  private:
    void dumpTo(std::string &out, int indent) const;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

} // namespace texdist

#endif // TEXDIST_CORE_JSON_HH
