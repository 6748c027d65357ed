// Swapping decision procedures (§2.5): run the same experiment with each
// registered solver "without changes to other elements of the system".
//
// Declared as a CampaignSpec with a solver axis: every registered solver
// becomes one grid cell, run in parallel by the campaign layer. Seed mode
// per_replicate keeps a single shared seed (9) across the cells, so the
// solvers face identical device noise — a paired comparison.
#include <cstdio>

#include "campaign/runner.hpp"
#include "core/presets.hpp"
#include "solver/factory.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

using namespace sdl;

int main() {
    support::set_log_level(support::LogLevel::Error);

    std::printf("Running N=32, B=8 with every registered solver...\n\n");

    campaign::CampaignSpec spec;
    spec.name = "shootout";
    spec.base = core::preset_quickstart(9);
    spec.base.total_samples = 32;
    spec.base.batch_size = 8;
    spec.axes.solvers = solver::solver_names();
    spec.base_seed = 9;
    spec.seed_mode = campaign::SeedMode::PerReplicate;

    const auto results = campaign::run(spec);

    support::TextTable table({"Solver", "Final best", "Best color", "Samples to < 15"});
    table.set_alignment({support::TextTable::Align::Left, support::TextTable::Align::Right,
                         support::TextTable::Align::Left,
                         support::TextTable::Align::Right});
    for (const campaign::CellResult& result : results) {
        int to_threshold = -1;
        for (const auto& sample : result.outcome.samples) {
            if (sample.best_so_far < 15.0) {
                to_threshold = sample.index;
                break;
            }
        }
        table.add_row({result.cell.solver,
                       support::fmt_double(result.outcome.best_score, 2),
                       result.outcome.best_color.str(),
                       to_threshold > 0 ? std::to_string(to_threshold) : "never"});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nThe oracle knows the analytic recipe (its score is pure\n"
                "measurement noise); grid/random are uninformed baselines.\n");
    return 0;
}
