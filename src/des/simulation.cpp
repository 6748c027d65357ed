#include "des/simulation.hpp"

#include "support/common.hpp"

namespace sdl::des {

void Simulation::schedule_at(TimePoint t, Callback fn) {
    support::check(static_cast<bool>(fn), "cannot schedule an empty callback");
    support::check(t >= now_, "cannot schedule an event in the past");
    queue_.push(Event{t, next_seq_++, std::move(fn)});
}

void Simulation::schedule_in(Duration delay, Callback fn) {
    support::check(delay >= Duration::zero(), "negative scheduling delay");
    schedule_at(now_ + delay, std::move(fn));
}

bool Simulation::step() {
    if (queue_.empty()) return false;
    // priority_queue::top returns const&; moving the callback out requires
    // a copy of the handle anyway, which is cheap relative to event work.
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++processed_;
    ev.fn();
    return true;
}

void Simulation::run_all() {
    while (step()) {
    }
}

void Simulation::run_until_time(TimePoint t) {
    support::check(t >= now_, "cannot run the clock backwards");
    while (!queue_.empty() && queue_.top().time <= t) {
        step();
    }
    now_ = t;
}

bool Simulation::run_until(const std::function<bool()>& pred) {
    if (pred()) return true;
    while (!queue_.empty()) {
        step();
        if (pred()) return true;
    }
    return false;
}

}  // namespace sdl::des
