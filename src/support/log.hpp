// Leveled logger.
//
// Devices, the workflow engine and the publication pipeline all narrate
// what they are doing; tests and benches silence them via set_level.
// Thread-safe: concurrent module threads may log simultaneously.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace sdl::support {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Emits one line: "[LEVEL] [component] message".
void log_message(LogLevel level, std::string_view component, std::string_view message);

namespace detail {
template <typename... Args>
void log_fmt(LogLevel level, std::string_view component, const Args&... args) {
    if (level < log_level()) return;
    std::ostringstream os;
    (os << ... << args);
    log_message(level, component, os.str());
}
}  // namespace detail

template <typename... Args>
void log_info(std::string_view component, const Args&... args) {
    detail::log_fmt(LogLevel::Info, component, args...);
}
template <typename... Args>
void log_warn(std::string_view component, const Args&... args) {
    detail::log_fmt(LogLevel::Warn, component, args...);
}

}  // namespace sdl::support
