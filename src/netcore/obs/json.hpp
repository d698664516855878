#pragma once

// Minimal JSON support — no dependencies. One recursive-descent grammar
// walker with an optional DOM output, behind two entry points:
//   json_valid()  — syntax validator (no parse tree, no allocation), used
//                   by obs tests and the obs_smoke ctest to assert exports
//                   are well-formed without pulling in a JSON library.
//   json_parse()  — tiny DOM for the consumers that must *read* obs JSON
//                   (the `dynaddr top` renderer polling /top). Built for
//                   small trusted payloads from our own endpoints, not as
//                   a general-purpose parser.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dynaddr::obs {

/// True when `text` is exactly one valid JSON value (RFC 8259 grammar,
/// surrounding whitespace allowed). Strings are checked for escape
/// validity; numbers for JSON number syntax.
[[nodiscard]] bool json_valid(std::string_view text);

/// One parsed JSON value. Numbers are kept as double (the obs payloads
/// stay far below 2^53); object keys keep insertion order.
struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(std::string_view key) const {
        if (type != Type::Object) return nullptr;
        for (const auto& [name, value] : object)
            if (name == key) return &value;
        return nullptr;
    }
    /// Member's number, or `fallback` when absent / not a number.
    [[nodiscard]] double number_or(std::string_view key,
                                   double fallback) const {
        const JsonValue* value = find(key);
        return value != nullptr && value->type == Type::Number ? value->number
                                                               : fallback;
    }
    /// Member's string, or `fallback` when absent / not a string.
    [[nodiscard]] std::string string_or(std::string_view key,
                                        std::string_view fallback) const {
        const JsonValue* value = find(key);
        return value != nullptr && value->type == Type::String
                   ? value->string
                   : std::string(fallback);
    }
};

/// Parses exactly one JSON value (same grammar json_valid accepts);
/// nullopt on any syntax error. \uXXXX escapes decode to UTF-8.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace dynaddr::obs
