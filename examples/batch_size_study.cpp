// Batch-size trade-off study: a miniature of the paper's Figure 4.
//
// Compares a small and a large batch size at equal sample budget and
// shows the throughput/accuracy trade-off: larger batches amortize the
// ot2 protocol overhead and the pf400 round trips, but give the solver
// fewer feedback rounds.
//
// Declared as a CampaignSpec: the campaign layer expands the batch-size
// axis, fans the cells out on the thread pool, and hands back the
// outcomes in grid order. Seed mode per_cell with base_seed 500 gives
// the cells seeds 500, 501, 502 — each experiment starts from its own
// random guesses.
#include <cstdio>

#include "campaign/runner.hpp"
#include "core/presets.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

using namespace sdl;

int main() {
    support::set_log_level(support::LogLevel::Error);
    constexpr int kBudget = 48;

    std::printf("Mini Figure 4: N=%d samples, batch sizes 2 / 8 / 24\n\n", kBudget);

    campaign::CampaignSpec spec;
    spec.name = "batch_size_study";
    spec.base = core::preset_fig4(/*batch_size=*/2, /*seed=*/500);
    spec.base.total_samples = kBudget;
    spec.axes.batch_sizes = {2, 8, 24};
    spec.base_seed = 500;
    spec.seed_mode = campaign::SeedMode::PerCell;

    const auto results = campaign::run(spec);

    support::TextTable table({"B", "Feedback rounds", "Total time", "Time per color",
                              "Final best"});
    table.set_alignment({support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right});
    for (const campaign::CellResult& result : results) {
        table.add_row({std::to_string(result.cell.batch_size),
                       std::to_string(result.outcome.batches_run),
                       result.outcome.metrics.total_time.pretty(),
                       result.outcome.metrics.time_per_color.pretty(),
                       support::fmt_double(result.outcome.best_score, 2)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nEach dot of the full Figure 4 comes from bench_fig4; this example\n"
                "shows the same trade-off at a size that runs in a second or two.\n");
    return 0;
}
