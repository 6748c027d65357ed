// Fleet coordinator core: every scheduling and failure decision of the
// fleet, as a pure state machine — no IO, no clock, no processes.
//
// run_fleet (fleet.cpp) is the IO shell around it: it reports what
// happened (a spawn, a hello, a beat, an ack, a journal record, a death)
// with the time in seconds on its own clock, and carries out the answer
// (send this lease, respawn that slot, convict this cell). `--resume`
// replays the coordinator ledger through the same calls, and tests drive
// it on a simulated clock.
//
// Leases are dealt off the front of the cost-model claim order
// (cost_model.hpp, longest-expected-first) and sized by cost: a lease
// takes cells while their summed cost stays within (pending cost) /
// (2 * live workers), and always at least one. So the biggest cells go
// out one per lease to separate workers, and toward the end each worker
// holds at most one running and one queued cell — the work-stealing.
// Order and sizing only work together: cost order with count-sized
// leases (equal costs) would hand the first worker every big cell. A
// lease is dealt on a worker's first hello, refilled on an ack that
// leaves it one cell or none, and topped up for an idle greeted worker.
// A dead worker's incomplete cells go back to the queue front in claim
// order. A completed cell is never dealt again, and completing one twice
// throws: the "no cell executed twice" guard stays loud.
//
// Failures: a worker silent for 30 s is hung. A death blames the first
// cell it gives back (workers run leases FIFO, so that is the one it most
// likely ran); blames from 3 distinct incarnations — (slot, generation)
// pairs — quarantine the cell: never dealt again, reported with its crash
// history, still counted toward the end. A dead slot respawns after
// min(5 s, 0.25 s * 2^(deaths since its last ack - 1)), on a budget of 8
// respawns; then it retires. A slot (re)spawns only while the live
// workers are fewer than the open cells, so a resume with one cell left
// starts one worker. docs/ROBUSTNESS.md has the policy; its constants sit
// atop coordinator.cpp.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

namespace sdl::campaign {

class Coordinator {
public:
    enum class CellState : unsigned char { Pending, Leased, Done, Quarantined };

    /// What a death decided.
    struct Death {
        std::vector<std::size_t> revoked;    ///< back at the queue front, claim order
        std::optional<std::size_t> suspect;  ///< the cell blamed: revoked.front()
        bool quarantined = false;            ///< this death convicted the suspect
        /// Seconds until the slot respawns; none once every cell is
        /// resolved or when the slot retires.
        std::optional<double> respawn_in;
        bool retired = false;  ///< this death spent the respawn budget
    };

    /// `slots` worker slots, each due for its first spawn at once.
    /// `order`: a permutation of the cells, the claim order
    /// (longest_first(costs)). `costs`: each cell's expected cost
    /// (expected_cell_cost), indexed by cell; empty means equal costs.
    Coordinator(std::size_t slots, std::vector<std::size_t> order,
                std::vector<double> costs = {});

    // Events; `now` is in seconds on the caller's clock.

    /// The slot's process started: returns its generation (0 first). The
    /// slot is alive and heard at `now`.
    int spawn(std::size_t slot, double now);
    /// The worker is ready: returns its first lease. A repeat hello deals
    /// nothing.
    [[nodiscard]] std::vector<std::size_t> hello(std::size_t slot, double now);
    void heard(std::size_t slot, double now);  ///< a heartbeat
    /// The worker journaled a cell (complete() it first): resets the
    /// slot's backoff streak; returns a refill when it holds one cell or
    /// none.
    [[nodiscard]] std::vector<std::size_t> acked(std::size_t slot, double now);
    /// A journal record of `cell` was read. Throws LogicError when the
    /// cell is already done (a duplicate execution) or quarantined; any
    /// other state is fine — a revoked cell's record may surface late.
    void complete(std::size_t cell);
    /// The slot's process is dead and its journal drained, or its spawn
    /// failed: revokes, blames, convicts and schedules the respawn.
    Death died(std::size_t slot, double now);

    // The poll loop.

    /// Leases for every greeted live worker that holds no cell, as
    /// (slot, lease) pairs.
    [[nodiscard]] std::vector<std::pair<std::size_t, std::vector<std::size_t>>> top_up();
    /// Dead slots whose respawn is due at `now`, in slot order, as many
    /// as bring the live workers up to the open (unresolved) cells.
    [[nodiscard]] std::vector<std::size_t> due(double now) const;
    /// Live slots silent past the heartbeat timeout at `now`.
    [[nodiscard]] std::vector<std::size_t> hung(double now) const;
    /// Seconds from `now` to the next timeout or allowed respawn, at most
    /// `cap`.
    [[nodiscard]] double next_deadline(double now, double cap) const;

    // Resume: a killed coordinator's ledger events, in ledger order
    // (journal records go through complete()). Slots and cells outside
    // this run are skipped.

    void replay_spawn(std::size_t slot, int generation);
    void replay_crash(std::size_t cell, std::size_t slot, int generation);
    void replay_quarantine(std::size_t cell);

    // State.

    /// Cells neither Done nor Quarantined.
    [[nodiscard]] std::size_t open_count() const noexcept {
        return states_.size() - done_ - quarantined_;
    }
    /// Every cell is Done or Quarantined.
    [[nodiscard]] bool all_done() const noexcept { return open_count() == 0; }
    /// Every slot is retired: nothing is left to run the open cells.
    [[nodiscard]] bool exhausted() const noexcept;
    [[nodiscard]] std::size_t done_count() const noexcept { return done_; }
    [[nodiscard]] std::size_t quarantined_count() const noexcept { return quarantined_; }
    [[nodiscard]] CellState state(std::size_t cell) const { return states_.at(cell); }
    /// Quarantined cells, ascending.
    [[nodiscard]] std::vector<std::size_t> quarantined() const;
    /// Distinct incarnations blamed on `cell` while it was unresolved.
    [[nodiscard]] std::size_t crash_count(std::size_t cell) const {
        return crashes_.at(cell).size();
    }
    /// Cells leased to `slot` and not yet complete.
    [[nodiscard]] std::size_t outstanding(std::size_t slot) const noexcept;
    [[nodiscard]] int generation(std::size_t slot) const {
        return slots_.at(slot).generation;
    }

private:
    using Incarnation = std::pair<std::size_t, int>;  // (slot, generation)

    struct Slot {
        int generation = -1;  ///< -1: never spawned
        bool alive = false;
        bool greeted = false;  ///< hello seen from this generation
        double last_heard = 0.0;
        std::optional<double> respawn_at = 0.0;
        std::size_t respawns = 0;
        std::size_t streak = 0;  ///< deaths since the last ack
        bool retired = false;
    };

    Slot& live(std::size_t slot);
    /// A cost-sized lease for `slot`, off the queue front.
    std::vector<std::size_t> deal(std::size_t slot);
    std::vector<std::size_t> revoke(std::size_t slot);
    /// Distinct incarnations now blamed on `cell`; 0 when it is resolved.
    std::size_t record_crash(std::size_t cell, Incarnation who);
    void quarantine(std::size_t cell);

    std::vector<Slot> slots_;
    std::size_t alive_ = 0;
    std::vector<CellState> states_;
    std::vector<std::size_t> owner_;   // slot, valid while Leased
    std::vector<std::size_t> rank_;    // cell -> position in claim order
    std::vector<double> costs_;        // cell -> expected cost
    std::deque<std::size_t> pending_;  // claim order, front = next; may be stale
    std::vector<std::vector<Incarnation>> crashes_;
    std::size_t done_ = 0;
    std::size_t quarantined_ = 0;
};

}  // namespace sdl::campaign
