#include "campaign/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "support/common.hpp"

namespace sdl::campaign {

namespace {

// Fleet policy: one value each, fixed here because no caller needs
// another (docs/ROBUSTNESS.md describes them).
/// A worker silent this long (no hello/beat/ack) is declared hung.
constexpr double kHeartbeatTimeoutS = 30.0;
/// A cell blamed by this many DISTINCT incarnations is quarantined.
constexpr std::size_t kQuarantineAfter = 3;
/// Per-slot respawn budget; a slot that spends it is retired.
constexpr std::size_t kMaxRespawns = 8;
/// Respawn backoff: min(cap, base * 2^(streak - 1)).
constexpr double kRespawnBackoffS = 0.25;
constexpr double kRespawnBackoffCapS = 5.0;

}  // namespace

Coordinator::Coordinator(std::size_t slots, std::vector<std::size_t> order,
                         std::vector<double> costs)
    : slots_(slots), states_(order.size(), CellState::Pending), owner_(order.size(), 0),
      rank_(order.size(), 0),
      costs_(costs.empty() ? std::vector<double>(order.size(), 1.0) : std::move(costs)),
      crashes_(order.size()) {
    support::check(costs_.size() == order.size(), "coordinator needs one cost per cell");
    std::vector<bool> seen(order.size(), false);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::size_t cell = order[pos];
        support::check(cell < order.size() && !seen[cell],
                       "coordinator order must be a permutation of the cells");
        seen[cell] = true;
        rank_[cell] = pos;
        pending_.push_back(cell);
    }
}

int Coordinator::spawn(std::size_t slot, double now) {
    Slot& s = slots_.at(slot);
    support::check(!s.alive && !s.retired, "spawn() of a live or retired slot");
    ++s.generation;
    s.alive = true;
    s.greeted = false;
    s.last_heard = now;
    s.respawn_at.reset();
    ++alive_;
    return s.generation;
}

std::vector<std::size_t> Coordinator::hello(std::size_t slot, double now) {
    Slot& s = live(slot);
    s.last_heard = now;
    if (s.greeted) return {};
    s.greeted = true;
    return deal(slot);
}

void Coordinator::heard(std::size_t slot, double now) { live(slot).last_heard = now; }

std::vector<std::size_t> Coordinator::acked(std::size_t slot, double now) {
    Slot& s = live(slot);
    s.last_heard = now;
    s.streak = 0;  // healthy progress
    // Pipelined refill: keep one cell queued behind the one running,
    // sized down as the queue drains (this is the work-stealing).
    if (outstanding(slot) > 1) return {};
    return deal(slot);
}

void Coordinator::complete(std::size_t cell) {
    support::check(cell < states_.size(), "complete() cell out of range");
    if (states_[cell] == CellState::Done) {
        throw support::LogicError("cell " + std::to_string(cell) +
                                  " completed twice — a worker executed a cell it did "
                                  "not own (duplicate results would corrupt the merge)");
    }
    if (states_[cell] == CellState::Quarantined) {
        throw support::LogicError(
            "cell " + std::to_string(cell) +
            " completed after quarantine — a worker was still running a cell "
            "the coordinator had written off (quarantine must only happen "
            "after every suspect worker is confirmed dead)");
    }
    // A Pending cell keeps its queue entry (deque erase is O(n)); deal()
    // skips entries that are no longer Pending.
    states_[cell] = CellState::Done;
    ++done_;
}

Coordinator::Death Coordinator::died(std::size_t slot, double now) {
    Slot& s = live(slot);
    s.alive = false;
    --alive_;
    Death death;
    death.revoked = revoke(slot);
    // Crash blame is a heuristic — which is why conviction takes
    // kQuarantineAfter DISTINCT incarnations, not one.
    if (!death.revoked.empty()) {
        death.suspect = death.revoked.front();
        if (record_crash(*death.suspect, {slot, s.generation}) >= kQuarantineAfter) {
            quarantine(*death.suspect);
            death.quarantined = true;
        }
    }
    ++s.streak;
    if (all_done()) return death;
    if (s.respawns >= kMaxRespawns) {
        s.retired = death.retired = true;
        return death;
    }
    ++s.respawns;
    const double backoff =
        std::min(kRespawnBackoffCapS,
                 kRespawnBackoffS * std::ldexp(1.0, static_cast<int>(s.streak) - 1));
    s.respawn_at = now + backoff;
    death.respawn_in = backoff;
    return death;
}

std::vector<std::pair<std::size_t, std::vector<std::size_t>>> Coordinator::top_up() {
    std::vector<std::pair<std::size_t, std::vector<std::size_t>>> leases;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        const Slot& s = slots_[slot];
        if (!s.alive || !s.greeted || outstanding(slot) > 0) continue;
        std::vector<std::size_t> lease = deal(slot);
        if (!lease.empty()) leases.emplace_back(slot, std::move(lease));
    }
    return leases;
}

std::vector<std::size_t> Coordinator::due(double now) const {
    // One live worker per open cell at most: a worker beyond that would
    // never be dealt a cell (a resume with one cell left, or a fleet
    // whose last cells are already running).
    std::vector<std::size_t> slots;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (alive_ + slots.size() >= open_count()) break;
        const Slot& s = slots_[slot];
        if (!s.alive && s.respawn_at && *s.respawn_at <= now) slots.push_back(slot);
    }
    return slots;
}

std::vector<std::size_t> Coordinator::hung(double now) const {
    std::vector<std::size_t> slots;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        const Slot& s = slots_[slot];
        if (s.alive && now - s.last_heard > kHeartbeatTimeoutS) slots.push_back(slot);
    }
    return slots;
}

double Coordinator::next_deadline(double now, double cap) const {
    const bool may_spawn = alive_ < open_count();  // as due() decides
    double next = cap;
    for (const Slot& s : slots_) {
        if (s.alive) {
            next = std::min(next, kHeartbeatTimeoutS - (now - s.last_heard));
        } else if (s.respawn_at && may_spawn) {
            next = std::min(next, *s.respawn_at - now);
        }
    }
    return next;
}

void Coordinator::replay_spawn(std::size_t slot, int generation) {
    if (slot < slots_.size()) {
        slots_[slot].generation = std::max(slots_[slot].generation, generation);
    }
}

void Coordinator::replay_crash(std::size_t cell, std::size_t slot, int generation) {
    if (cell < states_.size()) (void)record_crash(cell, {slot, generation});
}

void Coordinator::replay_quarantine(std::size_t cell) {
    if (cell < states_.size() && states_[cell] != CellState::Quarantined) {
        quarantine(cell);
    }
}

bool Coordinator::exhausted() const noexcept {
    return std::all_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.retired; });
}

std::vector<std::size_t> Coordinator::quarantined() const {
    std::vector<std::size_t> cells;
    for (std::size_t cell = 0; cell < states_.size(); ++cell) {
        if (states_[cell] == CellState::Quarantined) cells.push_back(cell);
    }
    return cells;
}

std::size_t Coordinator::outstanding(std::size_t slot) const noexcept {
    std::size_t n = 0;
    for (std::size_t cell = 0; cell < states_.size(); ++cell) {
        if (states_[cell] == CellState::Leased && owner_[cell] == slot) ++n;
    }
    return n;
}

Coordinator::Slot& Coordinator::live(std::size_t slot) {
    Slot& s = slots_.at(slot);
    support::check(s.alive, "event from a slot that is not alive");
    return s;
}

std::vector<std::size_t> Coordinator::deal(std::size_t slot) {
    // The queue may hold stale Done or Quarantined entries (a revoked
    // cell completed from a salvaged journal, a convicted one): they
    // neither count nor get dealt.
    double share = 0.0;
    for (const std::size_t cell : pending_) {
        if (states_[cell] == CellState::Pending) share += costs_[cell];
    }
    share /= 2.0 * static_cast<double>(std::max<std::size_t>(1, alive_));
    std::vector<std::size_t> lease;
    double cost = 0.0;
    while (!pending_.empty()) {
        const std::size_t cell = pending_.front();
        if (states_[cell] == CellState::Pending) {
            if (!lease.empty() && cost + costs_[cell] > share) break;
            cost += costs_[cell];
            states_[cell] = CellState::Leased;
            owner_[cell] = slot;
            lease.push_back(cell);
        }
        pending_.pop_front();
    }
    return lease;
}

std::vector<std::size_t> Coordinator::revoke(std::size_t slot) {
    std::vector<std::size_t> revoked;
    for (std::size_t cell = 0; cell < states_.size(); ++cell) {
        if (states_[cell] == CellState::Leased && owner_[cell] == slot) {
            states_[cell] = CellState::Pending;
            revoked.push_back(cell);
        }
    }
    std::sort(revoked.begin(), revoked.end(),
              [&](std::size_t a, std::size_t b) { return rank_[a] < rank_[b]; });
    // Front of the queue, in claim order: these were the longest
    // remaining cells, restart them first.
    for (auto it = revoked.rbegin(); it != revoked.rend(); ++it) pending_.push_front(*it);
    return revoked;
}

std::size_t Coordinator::record_crash(std::size_t cell, Incarnation who) {
    // A blame on a resolved cell is ignored: the journal record surfaced
    // after the blame was assigned, or the cell is already convicted.
    if (states_[cell] == CellState::Done || states_[cell] == CellState::Quarantined) {
        return 0;
    }
    std::vector<Incarnation>& burned = crashes_[cell];
    if (std::find(burned.begin(), burned.end(), who) == burned.end()) {
        burned.push_back(who);
    }
    return burned.size();
}

void Coordinator::quarantine(std::size_t cell) {
    // Only a Pending cell is convicted: a live blame is on a cell just
    // revoked, and a replayed conviction is skipped when already applied.
    if (states_[cell] == CellState::Done) {
        throw support::LogicError("cell " + std::to_string(cell) +
                                  " quarantined after completing — discarding a "
                                  "finished result is never correct");
    }
    states_[cell] = CellState::Quarantined;
    ++quarantined_;
}

}  // namespace sdl::campaign
