// Campaign runner: executes an expanded campaign grid on the thread pool.
//
// Every cell is an independent simulated workcell (its own
// core::WorkcellRuntime), so cells parallelize perfectly; the runner fans
// them out with support::ThreadPool::parallel_map on the process-wide
// pool, one item per pool grab, keeps results in grid order, and logs
// progress (level info, channel "campaign") as cells complete. The same
// map carries one difficulty probe per distinct generated seed among the
// cells (core::generated_difficulty, which the report reads from its memo), so
// the probes run beside the cells instead of one after another while
// campaign.json is written. Cells and probes are claimed
// longest-expected-first by one cost (campaign/cost_model.hpp, LPT
// scheduling — shortens the makespan tail on cost-skewed grids).
// Determinism: a cell's outcome depends only on its resolved
// config (expand_grid's deterministic seeds), never on scheduling, and a
// probe's score only on its seed, so the same spec always produces
// identical results.
#pragma once

#include <functional>
#include <vector>

#include "campaign/campaign.hpp"

namespace sdl::campaign {

/// One executed cell. `wall_seconds` is host time (excluded from the
/// deterministic result JSON; the journal and the fleet's progress lines
/// carry it).
struct CellResult {
    CampaignCell cell;
    core::ExperimentOutcome outcome;
    double wall_seconds = 0.0;
};

/// Per-cell completion hook (e.g. CLI progress output or the checkpoint
/// journal). Called in completion order. Guarantee: the runner serializes
/// every invocation (and the progress log line) behind one mutex, so the
/// hook never runs concurrently with itself — a journaling callback can
/// append to a shared file without its own locking. Keep it fast; cells
/// block on the mutex while it runs.
using CellDoneHook =
    std::function<void(const CellResult&, std::size_t done, std::size_t total)>;

/// Expands `spec` and runs every cell on the process-wide pool.
[[nodiscard]] std::vector<CellResult> run(const CampaignSpec& spec,
                                          const CellDoneHook& on_cell_done = {});

/// Runs an explicit subset of expanded cells (the cells a resumed run
/// still owes) on the process-wide pool. Results keep the order of
/// `cells`, which need not be contiguous in the grid. Only the
/// generated seeds of these cells are probed here; a resumed run's
/// report probes the seeds of its already-journaled cells itself.
[[nodiscard]] std::vector<CellResult> run_cells(std::vector<CampaignCell> cells,
                                                const CellDoneHook& on_cell_done = {});

}  // namespace sdl::campaign
