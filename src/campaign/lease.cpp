#include "campaign/lease.hpp"

#include <algorithm>
#include <utility>

#include "support/common.hpp"

namespace sdl::campaign {

LeaseTable::LeaseTable(std::size_t cell_count, std::vector<std::size_t> order,
                       std::vector<double> costs)
    : states_(cell_count, State::Pending), owner_(cell_count, -1),
      rank_(cell_count, 0),
      costs_(costs.empty() ? std::vector<double>(cell_count, 1.0) : std::move(costs)),
      crashes_(cell_count) {
    support::check(order.size() == cell_count,
                   "lease table order must be a permutation of the cells");
    support::check(costs_.size() == cell_count,
                   "lease table needs one cost per cell");
    std::vector<bool> seen(cell_count, false);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::size_t cell = order[pos];
        support::check(cell < cell_count && !seen[cell],
                       "lease table order must be a permutation of the cells");
        seen[cell] = true;
        rank_[cell] = pos;
        pending_.push_back(cell);
    }
}

std::vector<std::size_t> LeaseTable::grant(int worker, std::size_t max_cells) {
    std::vector<std::size_t> leased;
    while (leased.size() < max_cells && !pending_.empty()) {
        const std::size_t cell = pending_.front();
        pending_.pop_front();
        // A revoked-then-completed cell can still sit in the queue in
        // Done state (see complete()); skip it rather than re-lease it.
        if (states_[cell] != State::Pending) continue;
        states_[cell] = State::Leased;
        owner_[cell] = worker;
        leased.push_back(cell);
    }
    return leased;
}

void LeaseTable::complete(std::size_t cell) {
    support::check(cell < states_.size(), "complete() cell out of range");
    if (states_[cell] == State::Done) {
        throw support::LogicError("cell " + std::to_string(cell) +
                                  " completed twice — a worker executed a cell it did "
                                  "not own (duplicate results would corrupt the merge)");
    }
    if (states_[cell] == State::Quarantined) {
        throw support::LogicError(
            "cell " + std::to_string(cell) +
            " completed after quarantine — a worker was still running a cell "
            "the coordinator had written off (quarantine must only happen "
            "after every suspect worker is confirmed dead)");
    }
    // Pending cells are NOT removed from the queue here (deque erase is
    // O(n)); grant() skips non-Pending entries instead.
    states_[cell] = State::Done;
    owner_[cell] = -1;
    ++done_;
}

std::vector<std::size_t> LeaseTable::revoke(int worker) {
    std::vector<std::size_t> revoked;
    for (std::size_t cell = 0; cell < states_.size(); ++cell) {
        if (states_[cell] == State::Leased && owner_[cell] == worker) {
            states_[cell] = State::Pending;
            owner_[cell] = -1;
            revoked.push_back(cell);
        }
    }
    std::sort(revoked.begin(), revoked.end(),
              [&](std::size_t a, std::size_t b) { return rank_[a] < rank_[b]; });
    // Front of the queue, preserving relative (schedule) order: these
    // were the longest remaining cells, restart them first.
    for (auto it = revoked.rbegin(); it != revoked.rend(); ++it) {
        pending_.push_front(*it);
    }
    return revoked;
}

std::size_t LeaseTable::record_crash(std::size_t cell, long incarnation) {
    support::check(cell < states_.size(), "record_crash() cell out of range");
    if (states_[cell] == State::Done || states_[cell] == State::Quarantined) {
        return 0;
    }
    std::vector<long>& burned = crashes_[cell];
    if (std::find(burned.begin(), burned.end(), incarnation) == burned.end()) {
        burned.push_back(incarnation);
    }
    return burned.size();
}

void LeaseTable::quarantine(std::size_t cell) {
    support::check(cell < states_.size(), "quarantine() cell out of range");
    if (states_[cell] == State::Done) {
        throw support::LogicError("cell " + std::to_string(cell) +
                                  " quarantined after completing — discarding a "
                                  "finished result is never correct");
    }
    if (states_[cell] == State::Quarantined) {
        throw support::LogicError("cell " + std::to_string(cell) +
                                  " quarantined twice — coordinator crash "
                                  "bookkeeping re-convicted a removed cell");
    }
    // grant() skips non-Pending queue entries, so no deque surgery needed.
    states_[cell] = State::Quarantined;
    owner_[cell] = -1;
    ++quarantined_;
}

std::size_t LeaseTable::crash_count(std::size_t cell) const noexcept {
    return cell < crashes_.size() ? crashes_[cell].size() : 0;
}

bool LeaseTable::is_quarantined(std::size_t cell) const noexcept {
    return cell < states_.size() && states_[cell] == State::Quarantined;
}

std::vector<std::size_t> LeaseTable::quarantined() const {
    std::vector<std::size_t> cells;
    for (std::size_t cell = 0; cell < states_.size(); ++cell) {
        if (states_[cell] == State::Quarantined) cells.push_back(cell);
    }
    return cells;
}

std::size_t LeaseTable::outstanding(int worker) const noexcept {
    std::size_t n = 0;
    for (std::size_t cell = 0; cell < states_.size(); ++cell) {
        if (states_[cell] == State::Leased && owner_[cell] == worker) ++n;
    }
    return n;
}

std::size_t LeaseTable::suggested_lease(std::size_t active_workers) const noexcept {
    // pending_ may hold stale Done/Quarantined entries (see complete());
    // only Pending cells count, and grant() skips the rest the same way.
    double pending_cost = 0.0;
    for (const std::size_t cell : pending_) {
        if (states_[cell] == State::Pending) pending_cost += costs_[cell];
    }
    const double workers = static_cast<double>(std::max<std::size_t>(1, active_workers));
    const double share = pending_cost / (2.0 * workers);
    std::size_t cells = 0;
    double lease_cost = 0.0;
    for (const std::size_t cell : pending_) {
        if (states_[cell] != State::Pending) continue;
        if (cells > 0 && lease_cost + costs_[cell] > share) break;
        lease_cost += costs_[cell];
        ++cells;
    }
    return cells;
}

}  // namespace sdl::campaign
