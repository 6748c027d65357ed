// Discrete-event simulation kernel.
//
// This is the virtual-time substrate under the simulated workcell: device
// actions that take minutes of robot time complete in microseconds of CPU
// time while the reported clocks match the lab. The kernel is a classic
// event-queue design: a min-heap of (time, sequence) ordered events, a
// monotone clock, and helpers to advance until a predicate holds.
//
// Determinism: events at equal times run in scheduling order (sequence
// numbers break ties), so a seeded experiment replays identically —
// a property the test suite checks.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "support/units.hpp"

namespace sdl::des {

using support::Duration;
using support::TimePoint;

class Simulation {
public:
    using Callback = std::function<void()>;

    Simulation() = default;
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /// Current virtual time.
    [[nodiscard]] TimePoint now() const noexcept { return now_; }

    /// Schedules `fn` at absolute time `t` (>= now, else throws LogicError).
    void schedule_at(TimePoint t, Callback fn);

    /// Schedules `fn` after a non-negative delay.
    void schedule_in(Duration delay, Callback fn);

    /// Processes the earliest pending event; false when the queue is empty.
    bool step();

    /// Runs until no events remain.
    void run_all();

    /// Runs all events with time <= t, then sets the clock to exactly t.
    void run_until_time(TimePoint t);

    /// Runs events until `pred()` becomes true (checked after each event).
    /// Returns false if the queue drained first.
    bool run_until(const std::function<bool()>& pred);

    [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
    [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

private:
    struct Event {
        TimePoint time;
        std::uint64_t seq;
        Callback fn;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.time != b.time) return b.time < a.time;
            return b.seq < a.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    TimePoint now_{};
    std::uint64_t next_seq_ = 0;
    std::uint64_t processed_ = 0;
};

}  // namespace sdl::des
