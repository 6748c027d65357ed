#include "support/failpoint.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "support/common.hpp"
#include "support/mutex.hpp"

namespace sdl::support::failpoint {
namespace {

/// Runtime state for one armed entry: the parsed schedule plus mutable
/// hit/fire counters.
struct ArmedEntry {
    Entry entry;
    std::size_t hits = 0;   ///< eligible hits seen (filter matched)
    std::size_t fires = 0;  ///< times this entry actually fired
};

struct Registry {
    Mutex mu;
    std::vector<ArmedEntry> entries SDL_GUARDED_BY(mu);
};

Registry& registry() {
    static Registry r;
    return r;
}

// The whole disabled-path cost: call sites check armed() — one relaxed
// load of this cold atomic — before anything else.
std::atomic<bool> g_armed{false};

[[noreturn]] void die_by_sigkill() {
    (void)std::raise(SIGKILL);
    // SIGKILL cannot be blocked; if raise somehow returned, abort loudly.
    std::abort();
}

bool is_site_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
           c == '_';
}

[[noreturn]] void bad_token(std::string_view what, std::string_view token) {
    throw ConfigError("failpoint spec: " + std::string(what) + " in '" +
                      std::string(token) + "'");
}

long parse_long(std::string_view text, std::string_view token,
                std::string_view what) {
    if (text.empty()) bad_token(what, token);
    long value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') bad_token(what, token);
        value = value * 10 + (c - '0');
    }
    return value;
}

Entry parse_entry(std::string_view token) {
    Entry entry;
    std::size_t pos = 0;
    while (pos < token.size() && is_site_char(token[pos])) ++pos;
    if (pos == 0) bad_token("missing site name", token);
    entry.site = std::string(token.substr(0, pos));

    if (pos < token.size() && token[pos] == '[') {
        const std::size_t close = token.find(']', pos);
        if (close == std::string_view::npos) bad_token("unclosed '['", token);
        entry.filter =
            parse_long(token.substr(pos + 1, close - pos - 1), token, "bad filter");
        pos = close + 1;
    }
    if (pos >= token.size() || token[pos] != '=') {
        bad_token("expected '=' after site", token);
    }
    ++pos;

    std::size_t end = pos;
    while (end < token.size() && token[end] >= 'a' && token[end] <= 'z') ++end;
    const std::string_view action = token.substr(pos, end - pos);
    if (action == "err") {
        entry.action = Action::Err;
    } else if (action == "kill") {
        entry.action = Action::Kill;
    } else if (action == "delay") {
        entry.action = Action::Delay;
    } else {
        bad_token("unknown action '" + std::string(action) + "'", token);
    }
    pos = end;

    if (pos < token.size() && token[pos] == '(') {
        const std::size_t close = token.find(')', pos);
        if (close == std::string_view::npos) bad_token("unclosed '('", token);
        entry.param =
            parse_long(token.substr(pos + 1, close - pos - 1), token, "bad param");
        pos = close + 1;
    }
    if (pos < token.size() && token[pos] == '@') {
        std::size_t stop = pos + 1;
        while (stop < token.size() && token[stop] != '#') ++stop;
        const long nth =
            parse_long(token.substr(pos + 1, stop - pos - 1), token, "bad @nth");
        if (nth < 1) bad_token("@nth must be >= 1", token);
        entry.nth = static_cast<std::size_t>(nth);
        pos = stop;
    }
    if (pos < token.size() && token[pos] == '#') {
        const long count =
            parse_long(token.substr(pos + 1), token, "bad #count");
        if (count < 1) bad_token("#count must be >= 1", token);
        entry.count = static_cast<std::size_t>(count);
        pos = token.size();
    }
    if (pos != token.size()) {
        bad_token("trailing garbage", token);
    }
    return entry;
}

}  // namespace

std::vector<Entry> parse(std::string_view text) {
    std::vector<Entry> entries;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t stop = text.find(',', start);
        if (stop == std::string_view::npos) stop = text.size();
        const std::string_view token = text.substr(start, stop - start);
        start = stop + 1;
        if (token.empty()) {
            if (stop == text.size()) break;
            bad_token("empty entry", text);
        }
        entries.push_back(parse_entry(token));
        if (stop == text.size()) break;
    }
    return entries;
}

bool armed() noexcept { return g_armed.load(std::memory_order_relaxed); }

void arm(const std::vector<Entry>& entries) {
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    reg.entries.clear();
    for (const Entry& entry : entries) reg.entries.push_back(ArmedEntry{entry});
    g_armed.store(!reg.entries.empty(), std::memory_order_release);
}

void arm(std::string_view text) { arm(parse(text)); }

void arm_from_env() {
    const char* value = std::getenv("SDLBENCH_FAILPOINTS");
    if (value == nullptr || value[0] == '\0') {
        disarm();
        return;
    }
    arm(std::string_view(value));
}

void disarm() noexcept {
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    reg.entries.clear();
    g_armed.store(false, std::memory_order_release);
}

Fired evaluate(std::string_view site, long arg) {
    if (!armed()) return {};
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    for (ArmedEntry& armed_entry : reg.entries) {
        const Entry& entry = armed_entry.entry;
        if (entry.site != site) continue;
        if (entry.filter.has_value() && *entry.filter != arg) continue;
        if (entry.count != 0 && armed_entry.fires >= entry.count) continue;
        ++armed_entry.hits;
        if (armed_entry.hits < entry.nth) continue;
        ++armed_entry.fires;
        return {entry.action, entry.param};
    }
    return {};
}

void maybe_fail(std::string_view site, const char* category, long arg) {
    if (!armed()) return;
    const Fired fired = evaluate(site, arg);
    switch (fired.action) {
        case Action::None:
            return;
        case Action::Err:
            throw Error(category, "injected failure at failpoint '" +
                                      std::string(site) + "'");
        case Action::Kill:
            die_by_sigkill();
        case Action::Delay: {
            const long ms = fired.param > 0 ? fired.param : 50;
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
            return;
        }
    }
}

}  // namespace sdl::support::failpoint
