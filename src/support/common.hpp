// Common small utilities shared by every sdlbench module.
//
// Error handling follows the C++ Core Guidelines: exceptions for errors
// that cannot be handled locally (E.2), assertions for programming bugs
// (I.6), and narrow_cast for checked narrowing conversions (ES.46).
#pragma once

#include <cstdint>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace sdl::support {

/// Base class for all sdlbench errors. Carries a category string so call
/// sites can report where in the stack the failure originated.
class Error : public std::runtime_error {
public:
    Error(std::string category, const std::string& message)
        : std::runtime_error("[" + category + "] " + message),
          category_(std::move(category)) {}

    /// Short machine-readable category, e.g. "yaml", "wei", "device".
    [[nodiscard]] const std::string& category() const noexcept { return category_; }

private:
    std::string category_;
};

/// Thrown when parsing structured text (JSON/YAML/CSV) fails.
class ParseError : public Error {
public:
    ParseError(const std::string& message, std::size_t line, std::size_t column)
        : Error("parse", message + " at line " + std::to_string(line) +
                             ", column " + std::to_string(column)),
          line_(line), column_(column) {}

    [[nodiscard]] std::size_t line() const noexcept { return line_; }
    [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
    std::size_t line_;
    std::size_t column_;
};

/// Thrown on misconfiguration (bad workcell file, inconsistent options).
class ConfigError : public Error {
public:
    explicit ConfigError(const std::string& message) : Error("config", message) {}
};

/// Internal invariant violation; always indicates a bug in sdlbench itself.
class LogicError : public std::logic_error {
public:
    explicit LogicError(const std::string& message) : std::logic_error(message) {}
};

/// Assert that `condition` holds; throws LogicError with location info.
/// Used instead of <cassert> so invariants stay checked in Release builds;
/// the hot paths that matter are never assertion-bound.
inline void check(bool condition, std::string_view message,
                  std::source_location loc = std::source_location::current()) {
    if (!condition) {
        std::ostringstream os;
        os << loc.file_name() << ":" << loc.line() << " in " << loc.function_name()
           << ": invariant violated: " << message;
        throw LogicError(os.str());
    }
}

/// Checked narrowing conversion (Core Guidelines ES.46 / gsl::narrow).
template <typename To, typename From>
[[nodiscard]] constexpr To narrow(From value) {
    const To result = static_cast<To>(value);
    if (static_cast<From>(result) != value ||
        ((result < To{}) != (value < From{}))) {
        throw LogicError("narrowing conversion lost information");
    }
    return result;
}

/// Clamp helper that works for any totally ordered type.
template <typename T>
[[nodiscard]] constexpr T clamp(T value, T lo, T hi) noexcept {
    return value < lo ? lo : (hi < value ? hi : value);
}

}  // namespace sdl::support
