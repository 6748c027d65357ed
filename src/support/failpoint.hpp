// Deterministic failpoint injection: named fault sites, armed at runtime.
//
// A failpoint is a named site in production code ("atomic_io.rename",
// "worker.pre_ack_kill", ...) where a fault can be injected on demand:
// an error return/throw, a SIGKILL of the calling process, or a delay.
// Sites are compiled in permanently and cost a single branch on a cold
// atomic when nothing is armed (the relaxed load in armed() is the whole
// disabled-path cost), so the exact binary that runs in production is
// the one the chaos tests exercise — no special build.
//
// Arming happens through the SDLBENCH_FAILPOINTS environment variable
// (or arm() in tests), with a comma-separated schedule grammar
// (documented in docs/ROBUSTNESS.md § Failpoint grammar):
//
//   spec    := entry (',' entry)*
//   entry   := site ['[' filter ']'] '=' action ['(' param ')']
//              ['@' nth] ['#' count]
//   action  := 'err' | 'kill' | 'delay'
//
//   site    dotted lower-case site name, e.g. atomic_io.rename
//   filter  only hits whose caller-supplied argument equals this fire
//           (e.g. worker.cell_start[5]=kill poisons grid cell 5)
//   param   action payload: err(N) = short-write N bytes where the site
//           honors it, delay(MS) = sleep MS milliseconds (default 50)
//   nth     first eligible hit, 1-based; default 1 (every hit eligible)
//   count   stop after this many fires; default unlimited
//
// Example: kill the process on the 2nd journal append, and fail every
// rename from the 3rd on:
//
//   SDLBENCH_FAILPOINTS='worker.pre_ack_kill=kill@2#1,atomic_io.rename=err@3'
//
// Determinism: an entry fires by hit count alone, and hit counters
// advance in program order — the same spec against the same execution
// replays the same schedule.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sdl::support::failpoint {

enum class Action { None, Err, Kill, Delay };

/// What a site evaluation decided. `param` carries the entry's action
/// payload (err(N)/delay(MS)); -1 when absent.
struct Fired {
    Action action = Action::None;
    long param = -1;
};

/// One parsed schedule entry (exposed so tools can validate specs and
/// the fleet can split per-worker schedules before spawning).
struct Entry {
    std::string site;
    std::optional<long> filter;  ///< site[N]: fire only when hit arg == N
    Action action = Action::Err;
    long param = -1;             ///< err(N)/delay(MS) payload
    std::size_t nth = 1;         ///< first eligible hit (1-based)
    std::size_t count = 0;       ///< max fires; 0 = unlimited
};

/// Parses the schedule grammar above. Throws ConfigError naming the
/// offending token on any malformed entry. An empty spec is valid (no
/// entries, arming it is a no-op).
[[nodiscard]] std::vector<Entry> parse(std::string_view text);

/// True when any failpoint schedule is armed. This is the only check on
/// the disabled hot path: one relaxed load of a cold atomic.
[[nodiscard]] bool armed() noexcept;

/// Arms `entries` (replacing any previous schedule and resetting all hit
/// counters). Arming no entries is equivalent to disarm().
void arm(const std::vector<Entry>& entries);
/// Parses and arms `text`. Throws ConfigError on bad grammar.
void arm(std::string_view text);
/// Reads SDLBENCH_FAILPOINTS and arms it (unset/empty disarms). Called
/// once at tool startup; throws ConfigError on bad grammar so a typo'd
/// schedule aborts the run instead of silently testing nothing.
void arm_from_env();
/// Clears the schedule; armed() returns false again.
void disarm() noexcept;

/// Full (slow-path) evaluation of one site hit. Advances the site's hit
/// counter, applies filter/nth/count, and returns the fired action
/// (Action::None almost always). `arg` is the caller-supplied filter
/// argument (e.g. the cell index at worker.cell_start); -1 = no arg.
/// Call sites should gate on armed() first — evaluate() does too, but
/// going through it costs a call.
[[nodiscard]] Fired evaluate(std::string_view site, long arg = -1);

/// Convenience for the common sites: evaluates `site` and acts —
///   Err   -> throws Error(category, "injected failure at ...")
///   Kill  -> raise(SIGKILL) (uncatchable: the honest crash)
///   Delay -> sleeps the entry's param (default 50 ms)
/// Single cold-atomic branch when nothing is armed.
void maybe_fail(std::string_view site, const char* category, long arg = -1);

}  // namespace sdl::support::failpoint
