// Simulated resources: counted resource (FIFO grant queue) and a
// continuous store (liquid level), both in virtual time.
//
// The workcell's OT2 keeps its dye reservoirs, which barty tops up, in
// Stores. Resource models exclusivity (one pf400 arm and camera shared by
// K ot2 decks) only in bench_multi_ot2's §4 pipeline.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "support/units.hpp"

namespace sdl::des {

/// A capacity-limited resource granted in FIFO order. acquire() invokes
/// the continuation as soon as a slot is free (immediately via a
/// zero-delay event when uncontended).
class Resource {
public:
    Resource(Simulation& sim, std::size_t capacity, std::string name = "resource");

    /// Requests one slot; `on_grant` runs when the slot is assigned.
    void acquire(std::function<void()> on_grant);

    /// Releases one held slot; grants the next waiter if any.
    void release();

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
    [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    Simulation& sim_;
    std::size_t capacity_;
    std::size_t in_use_ = 0;
    std::deque<std::function<void()>> waiters_;
    std::string name_;
};

/// A continuous-quantity store (e.g. a dye reservoir in µL) with a
/// capacity, supporting withdrawal, deposit and level queries. Withdrawal
/// below zero is refused so callers can trigger a replenish workflow —
/// exactly the check that drives the paper's cp_wf_replenish.
class Store {
public:
    Store(support::Volume capacity, support::Volume initial, std::string name = "store");

    /// Removes `amount` if available; returns false (and removes nothing)
    /// when the level is insufficient.
    [[nodiscard]] bool try_withdraw(support::Volume amount) noexcept;

    /// Adds `amount`, clamped at capacity; returns the amount accepted.
    support::Volume deposit(support::Volume amount) noexcept;

    /// Empties the store completely (barty's drain action).
    void drain() noexcept;

    [[nodiscard]] support::Volume level() const noexcept { return level_; }
    [[nodiscard]] support::Volume capacity() const noexcept { return capacity_; }
    [[nodiscard]] double fill_fraction() const noexcept;
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    support::Volume capacity_;
    support::Volume level_;
    std::string name_;
};

}  // namespace sdl::des
