// Cost-model scheduling: claim expensive work first, and size leases by
// what they cost.
//
// A campaign grid's cells differ wildly in wall cost. A 1536-well cell
// renders and reads 3200x2400 frames where a 96-well cell reads 800x600
// ones; a bayesian cell at N=128 pays O(n^2)-and-up GP refits per batch
// while a random cell just draws; a B=1 cell runs 128 full plate-read
// cycles where B=64 runs two. Whoever schedules cells (run_cells on the
// in-process pool, the fleet's Coordinator) starts the
// longest-expected work first so the makespan tail is short: the classic
// longest-processing-time (LPT) greedy, within 4/3 of the optimal
// makespan on identical workers (Graham, 1969). The fleet's Coordinator
// also sizes each lease by the costs below, so one lease never carries
// two of the grid's biggest cells while another worker idles.
//
// The model is deliberately coarse — relative units tuned from measured
// per-cell walls, not a prediction. Execution order is decoupled from
// result order everywhere (results stay in grid order), so the model can
// be retuned freely without touching any byte-identity contract.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiment_config.hpp"

namespace sdl::campaign {

/// Relative expected wall cost of one experiment run (arbitrary units,
/// > 0). Grows with total_samples and the per-solver per-proposal
/// weight, superlinearly for the GP-backed solver (its fit cost climbs
/// with the observation count), and with the number of batches: each
/// batch is a synthesize -> render -> read cycle whose cost follows the
/// pixels of the frame the camera renders for the run's plate format.
[[nodiscard]] double expected_run_cost(const core::ColorPickerConfig& config);

/// expected_run_cost of the cell's resolved config.
[[nodiscard]] double expected_cell_cost(const CampaignCell& cell);

/// expected_cell_cost of every cell, in cell order.
[[nodiscard]] std::vector<double> cell_costs(const std::vector<CampaignCell>& cells);

/// Positions into `costs`, largest first; ties break toward the lower
/// position so the order is deterministic.
[[nodiscard]] std::vector<std::size_t> longest_first(std::span<const double> costs);

/// longest_first(cell_costs(cells)): schedule_order(cells)[0] is the
/// cell every scheduler should start first.
[[nodiscard]] std::vector<std::size_t> schedule_order(
    const std::vector<CampaignCell>& cells);

}  // namespace sdl::campaign
