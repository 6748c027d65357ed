#include "campaign/runner.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "campaign/cost_model.hpp"
#include "core/colorpicker.hpp"
#include "core/scenario_gen.hpp"
#include "support/log.hpp"
#include "support/mutex.hpp"
#include "support/thread_pool.hpp"

namespace sdl::campaign {

std::vector<CellResult> run(const CampaignSpec& spec, const CellDoneHook& on_cell_done) {
    std::vector<CampaignCell> cells = expand_grid(spec);
    support::log_info("campaign", "'", spec.name, "': ", cells.size(), " cells on ",
                      support::global_pool().size(), " workers");
    return run_cells(std::move(cells), on_cell_done);
}

std::vector<CellResult> run_cells(std::vector<CampaignCell> cells,
                                  const CellDoneHook& on_cell_done) {
    const std::size_t total = cells.size();
    // One map item per cell, then one per distinct generated seed: the
    // seed's difficulty probe, which the report would otherwise run one
    // after another once every cell is done.
    const std::vector<std::uint64_t> probe_seeds = generated_seeds(cells);
    // Workers claim items longest-expected-first (LPT): starting the big
    // cells early keeps the makespan tail short when costs are skewed.
    // Claim order is a scheduling detail only — results scatter back to
    // input order below, and a probe's score depends only on its seed, so
    // output bytes are identical to the unordered run.
    std::vector<double> costs = cell_costs(cells);
    for (const std::uint64_t seed : probe_seeds) {
        costs.push_back(expected_run_cost(core::difficulty_probe_config(seed)));
    }
    const std::vector<std::size_t> order = longest_first(costs);
    // Serializes completion handling: the progress log line and the
    // on_cell_done hook (see CellDoneHook). Pool workers would otherwise
    // interleave a journaling callback's writes.
    support::Mutex done_mutex;
    std::size_t done = 0;

    std::vector<std::optional<CellResult>> mapped = support::global_pool().parallel_map(
        order.size(),
        [&](std::size_t k) -> std::optional<CellResult> {
            const std::size_t i = order[k];
            if (i >= total) {
                (void)core::generated_difficulty(probe_seeds[i - total]);
                return std::nullopt;
            }
            // sdlbench-lint: allow(steady-clock): wall_seconds is journal-only telemetry; campaign.json reports modeled time
            const auto started = std::chrono::steady_clock::now();
            CellResult result;
            result.cell = std::move(cells[i]);
            result.outcome = core::ColorPickerApp(result.cell.config).run();
            result.wall_seconds =
                // sdlbench-lint: allow(steady-clock): wall_seconds is journal-only telemetry; campaign.json reports modeled time
                std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                    .count();
            {
                support::MutexLock lock(done_mutex);
                const std::size_t finished = ++done;
                support::log_info("campaign", "[", finished, "/", total, "] ",
                                  result.cell.config.experiment_id,
                                  " best=", result.outcome.best_score, " (",
                                  result.outcome.samples.size(), " samples)");
                if (on_cell_done) on_cell_done(result, finished, total);
            }
            return result;
        });
    std::vector<CellResult> results(total);
    for (std::size_t k = 0; k < order.size(); ++k) {
        if (mapped[k]) results[order[k]] = std::move(*mapped[k]);
    }
    return results;
}

}  // namespace sdl::campaign
