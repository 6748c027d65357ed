// Ablation A6 — the workcell as the swept variable.
//
// The paper's thesis is that color matching makes a good SDL benchmark
// because the *system under test* — the workcell — can vary while the
// application stays fixed. This driver runs the identical experiment
// (genetic solver, N=64, B=8, seed-paired) on every scenario in the
// registry and reports the SDL metrics side by side:
//
//   baseline   — the Figure-2 reference numbers
//   degraded   — rejections + retakes: TWH stretches, interventions
//                appear when retries exhaust
//   fast_lane  — the 4x-hardware lower bound on TWH
//   minimal    — human handling: CCWH collapses, TWH balloons
//
// The Figure-2 loop drives one plate on one OT2; the paper's §4
// "additional OT2s" study, K plates in flight on K decks, is
// bench_multi_ot2.
//
// Implemented as a scenario-sweeping campaign (grid.workcells), i.e.
// exactly what `sdlbench_run --campaign` does for a workcells: axis —
// per_replicate seeding pairs the comparison so every scenario sees the
// same solver proposals.
#include <cstdio>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/scenarios.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

using namespace sdl;
using support::Duration;

int main() {
    support::set_log_level(support::LogLevel::Error);

    std::printf("================================================================\n");
    std::printf("Ablation A6 — one experiment, every workcell scenario\n");
    std::printf("  genetic solver, N=64, B=8, seed-paired across scenarios\n");
    std::printf("================================================================\n\n");

    campaign::CampaignSpec spec;
    spec.name = "bench_scenarios";
    spec.base.total_samples = 64;
    spec.base.batch_size = 8;
    spec.base.solver = "genetic";
    spec.base_seed = 1;
    spec.seed_mode = campaign::SeedMode::PerReplicate;
    spec.axes.workcells = core::scenario_names();
    spec.axes.solvers = {"genetic"};

    const auto results = campaign::run(spec);

    support::TextTable table({"Scenario", "Best", "TWH (total)", "CCWH",
                              "Time per color", "Interventions", "Wall s"});
    table.set_alignment({support::TextTable::Align::Left, support::TextTable::Align::Right,
                         support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right});
    for (const campaign::CellResult& result : results) {
        const metrics::SdlMetrics& m = result.outcome.metrics;
        table.add_row({result.cell.workcell,
                       support::fmt_double(result.outcome.best_score, 2),
                       m.total_time.pretty(), std::to_string(m.commands_completed),
                       m.time_per_color.pretty(), std::to_string(m.interventions),
                       support::fmt_double(result.wall_seconds, 2)});
    }
    std::printf("%s", table.str().c_str());

    std::printf("\nExpected shape: identical sample budgets everywhere; fast_lane\n"
                "compresses TWH ~4x, degraded pays rejection latency + retry\n"
                "backoff on top of the baseline, minimal trades CCWH (human\n"
                "handling is not a robot command) for cheaper hardware. The\n"
                "solver never changed — any score drift is the scenario's own\n"
                "fault/glitch draws, which is the paper's point.\n");
    return 0;
}
