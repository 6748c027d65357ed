// Lease-table scheduler: dynamic work distribution with revocation.
//
// The fleet coordinator owns one LeaseTable over the expanded grid.
// Cells start Pending in cost-model schedule order (cost_model.hpp,
// longest-expected-first); workers pull small contiguous slices of that
// order ("leases"), complete cells out of order, and a dead worker's
// incomplete cells are revoked back to the FRONT of the queue — they
// were the longest remaining work, so the next free worker picks them
// up immediately. Work-stealing emerges from pull-based leasing: a
// lease is sized by expected cost, not by count (suggested_lease), so
// the grid's biggest cells go out one per lease to separate workers,
// leases of cheap cells grow to match, and toward the end every worker
// holds at most one running and one queued cell — no straggler can sit
// on a pile another worker could have taken. The order and the sizing
// only work together: cost order with count-sized leases would hand the
// first worker every one of the biggest cells.
//
// The table never re-issues a completed cell, and complete() on an
// already-completed cell throws — that is the fleet's "no cell executed
// twice" duplicate guard staying loud (the same discipline as the
// journal loader's duplicate check).
//
// Crash-loop containment: record_crash() accumulates which distinct
// worker incarnations died while suspected of running a cell; once K
// distinct incarnations have been burned, the coordinator calls
// quarantine() and the cell leaves the schedule permanently — reported
// as a failed cell with its crash history instead of re-leased forever
// (docs/ROBUSTNESS.md § Poison-cell quarantine).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "campaign/campaign.hpp"

namespace sdl::campaign {

class LeaseTable {
public:
    /// `order`: a permutation of [0, cell_count) — the claim order
    /// (longest_first(costs)); leases are dealt off its front. `costs`:
    /// each cell's expected cost (expected_cell_cost), indexed by cell;
    /// empty means every cell costs the same.
    LeaseTable(std::size_t cell_count, std::vector<std::size_t> order,
               std::vector<double> costs = {});

    /// Leases up to `max_cells` pending cells (in queue order) to
    /// `worker`. Returns the leased cell positions; empty when nothing
    /// is pending (everything is leased or done).
    [[nodiscard]] std::vector<std::size_t> grant(int worker, std::size_t max_cells);

    /// Marks `cell` complete (journal record observed). Throws
    /// LogicError when the cell was already complete — a duplicate
    /// execution, which must never be silent. The cell may be in any
    /// other state: normally Leased, but also Pending (a revoked cell
    /// whose journal record surfaced after the revoke).
    void complete(std::size_t cell);

    /// Returns `worker`'s incomplete leased cells to the front of the
    /// pending queue (in their original schedule order, which the
    /// returned vector also follows) and clears the worker's lease set.
    /// Call after the worker is confirmed dead
    /// (killed + reaped) and its journal has been drained — never
    /// while it might still run.
    std::vector<std::size_t> revoke(int worker);

    /// Records that worker `incarnation` (a unique id per spawned
    /// process, NOT the slot number — respawns get fresh ids) died while
    /// `cell` was the suspected culprit. Returns how many DISTINCT
    /// incarnations have now been burned by this cell; the coordinator
    /// quarantines at its K threshold. Duplicate (cell, incarnation)
    /// pairs don't double-count, and crashes recorded against a Done or
    /// Quarantined cell are ignored (returns 0) — the race where the
    /// journal record surfaced after the blame was assigned.
    std::size_t record_crash(std::size_t cell, long incarnation);

    /// Removes `cell` from the schedule permanently: it will never be
    /// granted again and counts toward all_done() without counting as
    /// done. Throws LogicError when the cell is already Done (it
    /// finished — quarantining it would discard a real result) or
    /// already Quarantined (double-quarantine means the coordinator's
    /// bookkeeping is broken).
    void quarantine(std::size_t cell);

    /// Distinct incarnations burned by `cell` so far (0 for most cells).
    [[nodiscard]] std::size_t crash_count(std::size_t cell) const noexcept;
    [[nodiscard]] bool is_quarantined(std::size_t cell) const noexcept;
    /// Quarantined cell indices, ascending.
    [[nodiscard]] std::vector<std::size_t> quarantined() const;

    /// True when every cell is resolved: Done or Quarantined.
    [[nodiscard]] bool all_done() const noexcept {
        return done_ + quarantined_ == states_.size();
    }
    [[nodiscard]] std::size_t done_count() const noexcept { return done_; }
    [[nodiscard]] std::size_t quarantined_count() const noexcept { return quarantined_; }
    [[nodiscard]] std::size_t cell_count() const noexcept { return states_.size(); }
    /// Cells currently leased to `worker` and not yet complete.
    [[nodiscard]] std::size_t outstanding(int worker) const noexcept;

    /// Cost-sized lease: how many cells grant() should deal next. Counts
    /// pending cells off the queue front while their summed cost stays
    /// within (pending cost) / (2 * active_workers), and always at least
    /// one while work remains — so every worker holds a share with
    /// headroom to rebalance, and a cell bigger than a share goes out
    /// alone. With uniform costs that is max(1, floor(pending / (2 *
    /// workers))). Small leases near the end are the work-stealing.
    [[nodiscard]] std::size_t suggested_lease(std::size_t active_workers) const noexcept;

private:
    enum class State : unsigned char { Pending, Leased, Done, Quarantined };

    std::vector<State> states_;
    std::vector<int> owner_;           // valid while Leased
    std::vector<std::size_t> rank_;    // cell -> position in schedule order
    std::vector<double> costs_;        // cell -> expected cost
    std::deque<std::size_t> pending_;  // claim order, front = next
    // cell -> distinct incarnations that died blamed on it; sorted-vector
    // keyed map would be overkill for the handful of crashing cells.
    std::vector<std::vector<long>> crashes_;
    std::size_t done_ = 0;
    std::size_t quarantined_ = 0;
};

}  // namespace sdl::campaign
