#include "netcore/obs/json.hpp"

#include <cctype>
#include <cstddef>
#include <cstdlib>

namespace dynaddr::obs {

namespace {

/// Recursive-descent cursor over the input, shared by json_valid and
/// json_parse. Each parse_* consumes one grammar production and returns
/// false on the first violation. Output pointers are optional: null
/// validates only, so json_valid allocates nothing.
struct JsonCursor {
    std::string_view text;
    std::size_t pos = 0;
    int depth = 0;

    static constexpr int kMaxDepth = 256;

    bool at_end() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void skip_ws() {
        while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                             text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool consume(char c) {
        if (at_end() || text[pos] != c) return false;
        ++pos;
        return true;
    }

    bool consume_literal(std::string_view word) {
        if (text.substr(pos, word.size()) != word) return false;
        pos += word.size();
        return true;
    }

    static void append_utf8(std::string& out, unsigned code) {
        if (code < 0x80) {
            out.push_back(char(code));
        } else if (code < 0x800) {
            out.push_back(char(0xC0 | (code >> 6)));
            out.push_back(char(0x80 | (code & 0x3F)));
        } else {
            out.push_back(char(0xE0 | (code >> 12)));
            out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(char(0x80 | (code & 0x3F)));
        }
    }

    bool parse_string(std::string* out) {
        if (!consume('"')) return false;
        while (!at_end()) {
            const char c = text[pos++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c != '\\') {
                if (out) out->push_back(c);
                continue;
            }
            if (at_end()) return false;
            char decoded;
            switch (text[pos++]) {
                case '"': decoded = '"'; break;
                case '\\': decoded = '\\'; break;
                case '/': decoded = '/'; break;
                case 'b': decoded = '\b'; break;
                case 'f': decoded = '\f'; break;
                case 'n': decoded = '\n'; break;
                case 'r': decoded = '\r'; break;
                case 't': decoded = '\t'; break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (at_end()) return false;
                        const char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
                        else return false;
                    }
                    if (out) append_utf8(*out, code);
                    continue;
                }
                default: return false;
            }
            if (out) out->push_back(decoded);
        }
        return false;  // unterminated
    }

    bool skip_digits() {
        if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
            return false;
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
            ++pos;
        return true;
    }

    bool parse_number(double* out) {
        const std::size_t start = pos;
        consume('-');
        if (!at_end() && peek() == '0') {
            ++pos;
        } else if (!skip_digits()) {
            return false;
        }
        if (consume('.') && !skip_digits()) return false;
        if (!at_end() && (peek() == 'e' || peek() == 'E')) {
            ++pos;
            if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
            if (!skip_digits()) return false;
        }
        if (out)
            *out = std::strtod(
                std::string(text.substr(start, pos - start)).c_str(), nullptr);
        return true;
    }

    bool parse_value(JsonValue* out) {
        if (++depth > kMaxDepth) return false;
        skip_ws();
        if (at_end()) return false;
        using Type = JsonValue::Type;
        Type type;
        bool ok;
        switch (peek()) {
            case '{': type = Type::Object; ok = parse_object(out); break;
            case '[': type = Type::Array; ok = parse_array(out); break;
            case '"':
                type = Type::String;
                ok = parse_string(out ? &out->string : nullptr);
                break;
            case 't':
                type = Type::Bool;
                ok = consume_literal("true");
                if (out) out->boolean = true;
                break;
            case 'f': type = Type::Bool; ok = consume_literal("false"); break;
            case 'n': type = Type::Null; ok = consume_literal("null"); break;
            default:
                type = Type::Number;
                ok = parse_number(out ? &out->number : nullptr);
                break;
        }
        if (out) out->type = type;
        --depth;
        return ok;
    }

    bool parse_object(JsonValue* out) {
        if (!consume('{')) return false;
        skip_ws();
        if (consume('}')) return true;
        while (true) {
            skip_ws();
            std::string key;
            if (!parse_string(out ? &key : nullptr)) return false;
            skip_ws();
            if (!consume(':')) return false;
            JsonValue value;
            if (!parse_value(out ? &value : nullptr)) return false;
            if (out) out->object.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (consume('}')) return true;
            if (!consume(',')) return false;
        }
    }

    bool parse_array(JsonValue* out) {
        if (!consume('[')) return false;
        skip_ws();
        if (consume(']')) return true;
        while (true) {
            JsonValue value;
            if (!parse_value(out ? &value : nullptr)) return false;
            if (out) out->array.push_back(std::move(value));
            skip_ws();
            if (consume(']')) return true;
            if (!consume(',')) return false;
        }
    }

    /// One value spanning the whole input, surrounding whitespace allowed.
    bool parse_document(JsonValue* out) {
        if (!parse_value(out)) return false;
        skip_ws();
        return at_end();
    }
};

}  // namespace

bool json_valid(std::string_view text) {
    return JsonCursor{text}.parse_document(nullptr);
}

std::optional<JsonValue> json_parse(std::string_view text) {
    JsonValue value;
    if (!JsonCursor{text}.parse_document(&value)) return std::nullopt;
    return value;
}

}  // namespace dynaddr::obs
