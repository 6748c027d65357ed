// Campaign harness benchmark: the full Figure-4 grid in one invocation.
//
// Expands the seven-batch-size campaign (N=128 toward rgb(120,120,120),
// B = 1, 2, 4, 8, 16, 32, 64) through the campaign layer, runs it on the
// thread pool, prints the per-cell summary, and writes
// BENCH_campaign.json: host wall time plus modeled (simulated) time per
// cell — the repo's perf trajectory file, collected as a CI artifact.
// Also measures the checkpoint layer's overhead (journal write + resume
// validation, campaign/checkpoint.hpp) and records it in the JSON.
//
//   bench_campaign [--quick]   # --quick: 2-cell smoke grid for CI debug
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/presets.hpp"
#include "support/atomic_io.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace sdl;

namespace {

campaign::CampaignSpec fig4_grid() {
    campaign::CampaignSpec spec;
    spec.name = "fig4_grid";
    spec.base = core::preset_fig4(/*batch_size=*/1, /*seed=*/100);
    spec.axes.batch_sizes = {1, 2, 4, 8, 16, 32, 64};
    spec.base_seed = 100;
    spec.seed_mode = campaign::SeedMode::PerCell;
    return spec;
}

campaign::CampaignSpec quick_grid() {
    campaign::CampaignSpec spec = fig4_grid();
    spec.name = "fig4_quick";
    spec.base.total_samples = 16;
    spec.axes.batch_sizes = {2, 8};
    return spec;
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size());
    std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.5) - 1;
    index = std::min(index, values.size() - 1);
    return values[index];
}

}  // namespace

int main(int argc, char** argv) {
    support::set_log_level(support::LogLevel::Error);
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const campaign::CampaignSpec spec = quick ? quick_grid() : fig4_grid();

    std::printf("================================================================\n");
    std::printf("Campaign bench — %s: %zu cells, N=%d, target rgb(120,120,120)\n",
                spec.name.c_str(), campaign::cell_count(spec), spec.base.total_samples);
    std::printf("================================================================\n");

    const auto started = std::chrono::steady_clock::now();
    const auto results = campaign::CampaignRunner().run(spec);
    const double total_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

    support::TextTable table({"B", "Seed", "Final best", "Modeled time", "Wall time",
                              "Speedup"});
    table.set_alignment({support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right,
                         support::TextTable::Align::Right});
    double modeled_minutes_sum = 0.0;
    for (const campaign::CellResult& result : results) {
        const double modeled_min = result.outcome.metrics.total_time.to_minutes();
        modeled_minutes_sum += modeled_min;
        const double speedup =
            result.wall_seconds > 0.0 ? modeled_min * 60.0 / result.wall_seconds : 0.0;
        table.add_row({std::to_string(result.cell.batch_size),
                       std::to_string(result.cell.config.seed),
                       support::fmt_double(result.outcome.best_score, 2),
                       result.outcome.metrics.total_time.pretty(),
                       support::fmt_double(result.wall_seconds, 2) + " s",
                       support::fmt_double(speedup, 0) + "x"});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\n%zu cells: %.1f modeled lab-hours simulated in %.1f wall-seconds.\n",
                results.size(), modeled_minutes_sum / 60.0, total_wall_seconds);

    // Scheduler quality: how well the cost-ordered pool packed the cells.
    std::vector<double> walls;
    walls.reserve(results.size());
    double busy_seconds = 0.0;
    for (const campaign::CellResult& result : results) {
        walls.push_back(result.wall_seconds);
        busy_seconds += result.wall_seconds;
    }
    const std::size_t pool_workers = support::global_pool().size();
    const double efficiency =
        total_wall_seconds > 0.0
            ? busy_seconds / (total_wall_seconds * static_cast<double>(pool_workers))
            : 0.0;
    const double wall_p50 = percentile(walls, 0.50);
    const double wall_p95 = percentile(walls, 0.95);
    std::printf("Scheduler: makespan %.2f s, busy %.2f s on %zu workers "
                "(efficiency %.0f%%); cell wall p50 %.2f s, p95 %.2f s.\n",
                total_wall_seconds, busy_seconds, pool_workers, efficiency * 100.0,
                wall_p50, wall_p95);

    // Checkpoint overhead: what journaling every cell costs at run time,
    // and what a resume pays to validate the journal against the
    // re-expanded grid before skipping completed cells.
    const std::string journal_dir = "BENCH_campaign_journal";
    std::filesystem::create_directories(journal_dir);
    auto t0 = std::chrono::steady_clock::now();
    {
        campaign::CheckpointJournal journal(journal_dir, spec, results.size());
        for (const campaign::CellResult& result : results) journal.append(result);
    }
    const double journal_write_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const auto journal_bytes = static_cast<std::int64_t>(
        std::filesystem::file_size(campaign::journal_path(journal_dir)));
    t0 = std::chrono::steady_clock::now();
    const campaign::LoadedJournal loaded = campaign::load_journal(
        campaign::journal_path(journal_dir), spec, campaign::expand_grid(spec));
    const double resume_load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::filesystem::remove_all(journal_dir);
    std::printf("Checkpointing: journal %zu cells (%.1f KiB) in %.1f ms; resume "
                "validation %.1f ms.\n",
                loaded.cells.size(), static_cast<double>(journal_bytes) / 1024.0,
                journal_write_seconds * 1e3, resume_load_seconds * 1e3);

    // The perf trajectory file (uploaded as a CI artifact).
    support::json::Value bench = support::json::Value::object();
    bench.set("schema", "sdlbench.bench_campaign.v1");
    bench.set("campaign", spec.name);
    bench.set("cells", static_cast<std::int64_t>(results.size()));
    bench.set("total_wall_seconds", total_wall_seconds);
    bench.set("modeled_minutes_total", modeled_minutes_sum);
    support::json::Value cells = support::json::Value::array();
    for (const campaign::CellResult& result : results) {
        support::json::Value cell = support::json::Value::object();
        cell.set("solver", result.cell.solver);
        cell.set("batch_size", result.cell.batch_size);
        cell.set("seed", static_cast<std::int64_t>(result.cell.config.seed));
        cell.set("samples", static_cast<std::int64_t>(result.outcome.samples.size()));
        cell.set("best_score", result.outcome.best_score);
        cell.set("wall_seconds", result.wall_seconds);
        cell.set("modeled_minutes", result.outcome.metrics.total_time.to_minutes());
        cells.push_back(std::move(cell));
    }
    bench.set("cells_detail", std::move(cells));
    support::json::Value checkpoint = support::json::Value::object();
    checkpoint.set("journal_write_seconds", journal_write_seconds);
    checkpoint.set("resume_load_seconds", resume_load_seconds);
    checkpoint.set("journal_bytes", journal_bytes);
    bench.set("checkpoint", std::move(checkpoint));
    support::json::Value scheduler = support::json::Value::object();
    scheduler.set("workers", static_cast<std::int64_t>(pool_workers));
    scheduler.set("makespan_seconds", total_wall_seconds);
    scheduler.set("busy_seconds", busy_seconds);
    scheduler.set("efficiency", efficiency);
    scheduler.set("cell_wall_p50_seconds", wall_p50);
    scheduler.set("cell_wall_p95_seconds", wall_p95);
    bench.set("scheduler", std::move(scheduler));
    try {
        support::atomic_write("BENCH_campaign.json", bench.pretty() + "\n");
    } catch (const support::Error& error) {
        std::fprintf(stderr, "error: failed to write BENCH_campaign.json: %s\n",
                     error.what());
        return 1;
    }
    std::printf("Wrote BENCH_campaign.json\n");
    return 0;
}
