#include "campaign/cost_model.hpp"

#include <algorithm>
#include <numeric>

#include "imaging/plate_render.hpp"

namespace sdl::campaign {

namespace {

// Per-proposal compute weight relative to "random" = 1. The GP solver
// additionally scales with the observation count (below); the others
// are flat per proposal.
double solver_weight(const std::string& solver) {
    if (solver == "bayesian") return 8.0;
    if (solver == "genetic") return 2.0;
    if (solver == "anneal" || solver == "pattern") return 1.5;
    return 1.0;  // random, grid, oracle, unknown
}

// Per-batch cost: a fixed workcell/vision overhead plus a term per Mpix
// of the captured frame (render + read). Tuned on the 96/384/1536-well
// formats (0.48/1.92/7.68 Mpix frames): genetic cells at N=32, B=8 price
// at 304/736/2464 and measured walls of 0.05-0.08/0.17-0.27/0.68-0.81 s
// on a 4-vCPU 2.1 GHz Xeon.
constexpr double kBatchOverhead = 24.0;
constexpr double kBatchPerMpix = 75.0;

}  // namespace

double expected_run_cost(const core::ColorPickerConfig& config) {
    const double samples = std::max(1, config.total_samples);
    const double batch = std::max(1, config.batch_size);
    const double batches = (samples + batch - 1.0) / batch;  // ceil
    double per_sample = solver_weight(config.solver);
    if (config.solver == "bayesian") {
        // GP fit + candidate scoring climb with n; average over the run.
        per_sample *= 1.0 + samples / 64.0;
    }
    // The frame the camera renders for this plate (devices/camera.cpp).
    const imaging::PlateScene frame =
        imaging::scene_for_plate(imaging::PlateScene{}, config.plate_rows, config.plate_cols);
    const double mpix = static_cast<double>(frame.width) * frame.height * 1e-6;
    return samples * per_sample + batches * (kBatchOverhead + kBatchPerMpix * mpix);
}

double expected_cell_cost(const CampaignCell& cell) {
    return expected_run_cost(cell.config);
}

std::vector<double> cell_costs(const std::vector<CampaignCell>& cells) {
    std::vector<double> costs;
    costs.reserve(cells.size());
    for (const CampaignCell& cell : cells) costs.push_back(expected_cell_cost(cell));
    return costs;
}

std::vector<std::size_t> longest_first(std::span<const double> costs) {
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return costs[a] > costs[b];  // stable: equal costs keep position order
    });
    return order;
}

std::vector<std::size_t> schedule_order(const std::vector<CampaignCell>& cells) {
    return longest_first(cell_costs(cells));
}

}  // namespace sdl::campaign
