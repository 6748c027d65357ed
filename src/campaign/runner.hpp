// CampaignRunner: executes an expanded campaign grid on the thread pool.
//
// Every cell is an independent simulated workcell (its own
// core::WorkcellRuntime), so cells parallelize perfectly; the runner fans
// them out with support::ThreadPool::parallel_map using the hinted
// overload, claims cells longest-expected-first (campaign/cost_model.hpp,
// LPT scheduling — shortens the makespan tail on cost-skewed grids),
// keeps results in grid order, and logs progress as cells complete.
// Determinism: a cell's outcome depends only on its resolved
// config (expand_grid's deterministic seeds), never on scheduling, so the
// same spec always produces identical results.
#pragma once

#include <functional>
#include <vector>

#include "campaign/campaign.hpp"
#include "support/thread_pool.hpp"

namespace sdl::campaign {

/// One executed cell. `wall_seconds` is host time (excluded from the
/// deterministic result JSON; bench_campaign reports it separately).
struct CellResult {
    CampaignCell cell;
    core::ExperimentOutcome outcome;
    double wall_seconds = 0.0;
};

struct CampaignRunnerOptions {
    /// Cap on cells in flight (0 = one per pool worker).
    std::size_t max_workers = 0;
    /// Cells claimed per worker grab (ThreadPool chunk hint).
    std::size_t chunk = 1;
    /// Log one line per finished cell (level info, channel "campaign").
    bool log_progress = true;
    /// Extra per-cell completion hook (e.g. CLI progress output or the
    /// checkpoint journal). Called in completion order. Guarantee: the
    /// runner serializes every invocation (and the progress log line)
    /// behind one mutex, so the hook never runs concurrently with itself
    /// — a journaling callback can append to a shared file without its
    /// own locking. Keep it fast; cells block on the mutex while it runs.
    std::function<void(const CellResult&, std::size_t done, std::size_t total)>
        on_cell_done;
};

class CampaignRunner {
public:
    explicit CampaignRunner(CampaignRunnerOptions options = {}) : options_(options) {}

    /// Expands `spec` and runs every cell on the process-wide pool.
    [[nodiscard]] std::vector<CellResult> run(const CampaignSpec& spec) const;

    /// Same, on an explicit pool.
    [[nodiscard]] std::vector<CellResult> run(const CampaignSpec& spec,
                                              support::ThreadPool& pool) const;

    /// Runs an explicit subset of expanded cells (the cells a resumed run
    /// still owes) on the process-wide pool. Results keep the order of
    /// `cells`, which need not be contiguous in the grid.
    [[nodiscard]] std::vector<CellResult> run_cells(std::vector<CampaignCell> cells) const;

    /// Same, on an explicit pool.
    [[nodiscard]] std::vector<CellResult> run_cells(std::vector<CampaignCell> cells,
                                                    support::ThreadPool& pool) const;

private:
    CampaignRunnerOptions options_;
};

}  // namespace sdl::campaign
