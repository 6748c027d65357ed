// JSON document model, parser and writer.
//
// A single Value type serves three roles in sdlbench: JSON persistence for
// the data portal and run artifacts, the parse target of the YAML-subset
// reader (workcell/workflow configs), and the generic payload type for
// module action parameters/results — exactly the role JSON/YAML play in
// the paper's WEI framework.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace sdl::support::json {

class Value;

/// Insertion-ordered string -> Value map. Workcell and workflow files are
/// written by humans; preserving their key order keeps round-trips and
/// error messages predictable. Lookup is linear — objects here are small.
class Object {
public:
    using Item = std::pair<std::string, Value>;

    Object() = default;

    [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

    [[nodiscard]] bool contains(std::string_view key) const noexcept;
    /// Returns nullptr when absent.
    [[nodiscard]] const Value* find(std::string_view key) const noexcept;
    [[nodiscard]] Value* find(std::string_view key) noexcept;
    /// Throws Error("json") when absent.
    [[nodiscard]] const Value& at(std::string_view key) const;

    /// Inserts or overwrites.
    void set(std::string key, Value value);

    [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
    [[nodiscard]] auto end() const noexcept { return items_.end(); }
    [[nodiscard]] auto begin() noexcept { return items_.begin(); }
    [[nodiscard]] auto end() noexcept { return items_.end(); }

private:
    std::vector<Item> items_;
};

using Array = std::vector<Value>;

/// A JSON value: null, bool, integer, double, string, array or object.
/// Integers are kept distinct from doubles so counts and identifiers
/// survive round-trips exactly.
class Value {
public:
    Value() noexcept : data_(nullptr) {}
    Value(std::nullptr_t) noexcept : data_(nullptr) {}
    Value(bool b) noexcept : data_(b) {}
    Value(int i) noexcept : data_(static_cast<std::int64_t>(i)) {}
    Value(unsigned i) noexcept : data_(static_cast<std::int64_t>(i)) {}
    Value(long i) noexcept : data_(static_cast<std::int64_t>(i)) {}
    Value(long long i) noexcept : data_(static_cast<std::int64_t>(i)) {}
    Value(unsigned long i) : data_(static_cast<std::int64_t>(i)) {}
    Value(unsigned long long i) : data_(static_cast<std::int64_t>(i)) {}
    Value(double d) noexcept : data_(d) {}
    Value(const char* s) : data_(std::string(s)) {}
    Value(std::string s) noexcept : data_(std::move(s)) {}
    Value(std::string_view s) : data_(std::string(s)) {}
    Value(Array a) noexcept : data_(std::move(a)) {}
    Value(Object o) noexcept : data_(std::move(o)) {}

    [[nodiscard]] static Value array() { return Value(Array{}); }
    [[nodiscard]] static Value object() { return Value(Object{}); }

    [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(data_); }
    [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
    [[nodiscard]] bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(data_); }
    [[nodiscard]] bool is_double() const noexcept { return std::holds_alternative<double>(data_); }
    [[nodiscard]] bool is_number() const noexcept { return is_int() || is_double(); }
    [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
    [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(data_); }
    [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(data_); }

    // Typed accessors. A value of another type throws ConfigError
    // "<what> must be <type>, not <value>": readers of input files pass
    // the key as `what`.
    [[nodiscard]] bool as_bool(std::string_view what = "value") const;
    [[nodiscard]] std::int64_t as_int(std::string_view what = "value") const;
    /// Accepts int too.
    [[nodiscard]] double as_double(std::string_view what = "value") const;
    [[nodiscard]] const std::string& as_string(std::string_view what = "value") const;
    [[nodiscard]] const Array& as_array(std::string_view what = "value") const;
    [[nodiscard]] Array& as_array(std::string_view what = "value");
    [[nodiscard]] const Object& as_object(std::string_view what = "value") const;
    [[nodiscard]] Object& as_object(std::string_view what = "value");

    // Convenience lookups for object values.
    [[nodiscard]] const Value& at(std::string_view key) const;
    [[nodiscard]] const Value* find(std::string_view key) const noexcept;
    [[nodiscard]] bool contains(std::string_view key) const noexcept;

    /// The value at `key`, read as the fallback's type: the fallback when
    /// the key is absent or null; a value of another type throws
    /// ConfigError naming the key (an integer reads as a double).
    [[nodiscard]] std::string get_or(std::string_view key, const std::string& fallback) const;
    [[nodiscard]] double get_or(std::string_view key, double fallback) const;
    [[nodiscard]] std::int64_t get_or(std::string_view key, std::int64_t fallback) const;
    [[nodiscard]] bool get_or(std::string_view key, bool fallback) const;

    /// Object mutation; converts a null value into an object first.
    void set(std::string key, Value value);
    /// Array append; converts a null value into an array first.
    void push_back(Value value);

    /// Number of elements (array/object) or 0.
    [[nodiscard]] std::size_t size() const noexcept;

    /// Compact single-line serialization.
    [[nodiscard]] std::string dump() const;
    /// Pretty-printed serialization with 2-space indentation.
    [[nodiscard]] std::string pretty() const;

    friend bool operator==(const Value& a, const Value& b);

private:
    void write(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

bool operator==(const Object& a, const Object& b);

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// Throws ParseError with line/column on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Escapes and quotes `s` as a JSON string literal.
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace sdl::support::json
