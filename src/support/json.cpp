#include "support/json.hpp"

#include <cmath>
#include <charconv>
#include <cstdio>

#include "support/common.hpp"

namespace sdl::support::json {

// ---------------------------------------------------------------- Object

bool Object::contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
}

const Value* Object::find(std::string_view key) const noexcept {
    for (const auto& [k, v] : items_) {
        if (k == key) return &v;
    }
    return nullptr;
}

Value* Object::find(std::string_view key) noexcept {
    for (auto& [k, v] : items_) {
        if (k == key) return &v;
    }
    return nullptr;
}

const Value& Object::at(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr) {
        throw Error("json", "missing key '" + std::string(key) + "'");
    }
    return *v;
}

void Object::set(std::string key, Value value) {
    if (Value* existing = find(key)) {
        *existing = std::move(value);
        return;
    }
    items_.emplace_back(std::move(key), std::move(value));
}

bool operator==(const Object& a, const Object& b) {
    if (a.size() != b.size()) return false;
    auto ita = a.begin();
    auto itb = b.begin();
    for (; ita != a.end(); ++ita, ++itb) {
        if (ita->first != itb->first || !(ita->second == itb->second)) return false;
    }
    return true;
}

// ----------------------------------------------------------------- Value

namespace {

[[noreturn]] void wrong_type(std::string_view what, const char* want, const Value& v) {
    throw ConfigError(std::string(what) + " must be " + want + ", not " + v.dump());
}

}  // namespace

bool Value::as_bool(std::string_view what) const {
    if (const auto* b = std::get_if<bool>(&data_)) return *b;
    wrong_type(what, "true or false", *this);
}

std::int64_t Value::as_int(std::string_view what) const {
    if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
    wrong_type(what, "an integer", *this);
}

double Value::as_double(std::string_view what) const {
    if (const auto* d = std::get_if<double>(&data_)) return *d;
    if (const auto* i = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*i);
    wrong_type(what, "a number", *this);
}

const std::string& Value::as_string(std::string_view what) const {
    if (const auto* s = std::get_if<std::string>(&data_)) return *s;
    wrong_type(what, "a string", *this);
}

const Array& Value::as_array(std::string_view what) const {
    if (const auto* a = std::get_if<Array>(&data_)) return *a;
    wrong_type(what, "a list", *this);
}

Array& Value::as_array(std::string_view what) {
    if (auto* a = std::get_if<Array>(&data_)) return *a;
    wrong_type(what, "a list", *this);
}

const Object& Value::as_object(std::string_view what) const {
    if (const auto* o = std::get_if<Object>(&data_)) return *o;
    wrong_type(what, "a mapping", *this);
}

Object& Value::as_object(std::string_view what) {
    if (auto* o = std::get_if<Object>(&data_)) return *o;
    wrong_type(what, "a mapping", *this);
}

const Value& Value::at(std::string_view key) const { return as_object().at(key); }

const Value* Value::find(std::string_view key) const noexcept {
    const auto* o = std::get_if<Object>(&data_);
    return o != nullptr ? o->find(key) : nullptr;
}

bool Value::contains(std::string_view key) const noexcept { return find(key) != nullptr; }

std::string Value::get_or(std::string_view key, const std::string& fallback) const {
    const Value* v = find(key);
    return (v == nullptr || v->is_null()) ? fallback : v->as_string(key);
}

double Value::get_or(std::string_view key, double fallback) const {
    const Value* v = find(key);
    return (v == nullptr || v->is_null()) ? fallback : v->as_double(key);
}

std::int64_t Value::get_or(std::string_view key, std::int64_t fallback) const {
    const Value* v = find(key);
    return (v == nullptr || v->is_null()) ? fallback : v->as_int(key);
}

bool Value::get_or(std::string_view key, bool fallback) const {
    const Value* v = find(key);
    return (v == nullptr || v->is_null()) ? fallback : v->as_bool(key);
}

void Value::set(std::string key, Value value) {
    if (is_null()) data_ = Object{};
    as_object().set(std::move(key), std::move(value));
}

void Value::push_back(Value value) {
    if (is_null()) data_ = Array{};
    as_array().push_back(std::move(value));
}

std::size_t Value::size() const noexcept {
    if (const auto* a = std::get_if<Array>(&data_)) return a->size();
    if (const auto* o = std::get_if<Object>(&data_)) return o->size();
    return 0;
}

bool operator==(const Value& a, const Value& b) {
    // int/double cross-comparison: 3 == 3.0 for test convenience.
    if (a.is_number() && b.is_number() && (a.is_int() != b.is_int())) {
        return a.as_double() == b.as_double();
    }
    return a.data_ == b.data_;
}

// ---------------------------------------------------------------- writer

std::string escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

void write_double(std::string& out, double d) {
    if (std::isnan(d) || std::isinf(d)) {
        // JSON has no NaN/Inf; null is the least-surprising encoding.
        out += "null";
        return;
    }
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
    (void)ec;
    out.append(buf, ptr);
    // Ensure doubles keep a numeric marker distinguishing them from ints.
    std::string_view written(buf, static_cast<std::size_t>(ptr - buf));
    if (written.find('.') == std::string_view::npos &&
        written.find('e') == std::string_view::npos &&
        written.find("inf") == std::string_view::npos &&
        written.find("nan") == std::string_view::npos) {
        out += ".0";
    }
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
    const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ') : "";
    const std::string closing_pad = indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
    const char* nl = indent > 0 ? "\n" : "";
    const char* kv_sep = indent > 0 ? ": " : ":";

    if (is_null()) {
        out += "null";
    } else if (const auto* b = std::get_if<bool>(&data_)) {
        out += *b ? "true" : "false";
    } else if (const auto* i = std::get_if<std::int64_t>(&data_)) {
        out += std::to_string(*i);
    } else if (const auto* d = std::get_if<double>(&data_)) {
        write_double(out, *d);
    } else if (const auto* s = std::get_if<std::string>(&data_)) {
        out += escape(*s);
    } else if (const auto* a = std::get_if<Array>(&data_)) {
        if (a->empty()) {
            out += "[]";
            return;
        }
        out += '[';
        bool first = true;
        for (const Value& item : *a) {
            if (!first) out += ',';
            first = false;
            out += nl;
            out += pad;
            item.write(out, indent, depth + 1);
        }
        out += nl;
        out += closing_pad;
        out += ']';
    } else if (const auto* o = std::get_if<Object>(&data_)) {
        if (o->empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto& [key, value] : *o) {
            if (!first) out += ',';
            first = false;
            out += nl;
            out += pad;
            out += escape(key);
            out += kv_sep;
            value.write(out, indent, depth + 1);
        }
        out += nl;
        out += closing_pad;
        out += '}';
    }
}

std::string Value::dump() const {
    std::string out;
    write(out, 0, 0);
    return out;
}

std::string Value::pretty() const {
    std::string out;
    write(out, 2, 0);
    return out;
}

// ---------------------------------------------------------------- parser

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        skip_whitespace();
        Value v = parse_value(0);
        skip_whitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return v;
    }

private:
    static constexpr int kMaxDepth = 128;

    [[noreturn]] void fail(const std::string& message) const {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ParseError("json: " + message, line, col);
    }

    [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const { return text_[pos_]; }

    char advance() {
        if (eof()) fail("unexpected end of input");
        return text_[pos_++];
    }

    void expect(char c) {
        if (eof() || text_[pos_] != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    void skip_whitespace() {
        while (!eof()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else {
                break;
            }
        }
    }

    bool match_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    Value parse_value(int depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        if (eof()) fail("unexpected end of input");
        const char c = peek();
        switch (c) {
            case '{': return parse_object(depth);
            case '[': return parse_array(depth);
            case '"': return Value(parse_string());
            case 't':
                if (match_literal("true")) return Value(true);
                fail("invalid literal");
            case 'f':
                if (match_literal("false")) return Value(false);
                fail("invalid literal");
            case 'n':
                if (match_literal("null")) return Value(nullptr);
                fail("invalid literal");
            default: return parse_number();
        }
    }

    Value parse_object(int depth) {
        expect('{');
        Object obj;
        skip_whitespace();
        if (!eof() && peek() == '}') {
            ++pos_;
            return Value(std::move(obj));
        }
        for (;;) {
            skip_whitespace();
            if (eof() || peek() != '"') fail("expected string key");
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            skip_whitespace();
            obj.set(std::move(key), parse_value(depth + 1));
            skip_whitespace();
            if (eof()) fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value(std::move(obj));
        }
    }

    Value parse_array(int depth) {
        expect('[');
        Array arr;
        skip_whitespace();
        if (!eof() && peek() == ']') {
            ++pos_;
            return Value(std::move(arr));
        }
        for (;;) {
            skip_whitespace();
            arr.push_back(parse_value(depth + 1));
            skip_whitespace();
            if (eof()) fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value(std::move(arr));
        }
    }

    void append_utf8(std::string& out, unsigned codepoint) {
        if (codepoint < 0x80) {
            out.push_back(static_cast<char>(codepoint));
        } else if (codepoint < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else if (codepoint < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
            out.push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (codepoint >> 18)));
            out.push_back(static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        }
    }

    unsigned parse_hex4() {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = advance();
            value <<= 4;
            if (c >= '0' && c <= '9') {
                value |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                value |= static_cast<unsigned>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                value |= static_cast<unsigned>(c - 'A' + 10);
            } else {
                fail("invalid \\u escape");
            }
        }
        return value;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = advance();
            if (c == '"') return out;
            if (c == '\\') {
                const char esc = advance();
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'n': out.push_back('\n'); break;
                    case 'r': out.push_back('\r'); break;
                    case 't': out.push_back('\t'); break;
                    case 'u': {
                        unsigned cp = parse_hex4();
                        if (cp >= 0xD800 && cp <= 0xDBFF) {
                            // Surrogate pair.
                            if (advance() != '\\' || advance() != 'u') {
                                fail("missing low surrogate");
                            }
                            const unsigned lo = parse_hex4();
                            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
                            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                        }
                        append_utf8(out, cp);
                        break;
                    }
                    default: fail("invalid escape character");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            } else {
                out.push_back(c);
            }
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (!eof() && peek() == '-') ++pos_;
        bool is_floating = false;
        while (!eof()) {
            const char c = peek();
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                is_floating = true;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") fail("invalid number");
        if (!is_floating) {
            std::int64_t i = 0;
            const auto [ptr, ec] =
                std::from_chars(token.data(), token.data() + token.size(), i);
            if (ec == std::errc() && ptr == token.data() + token.size()) {
                return Value(i);
            }
            // Fall through: integer overflow -> parse as double.
        }
        double d = 0.0;
        const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
        if (ec != std::errc() || ptr != token.data() + token.size()) {
            fail("invalid number");
        }
        return Value(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace sdl::support::json
