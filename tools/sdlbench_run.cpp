// sdlbench_run — command-line driver for color-picker experiments.
//
//   sdlbench_run <experiment.yaml> [output_dir]
//   sdlbench_run --preset <name> [output_dir]
//   sdlbench_run --campaign <campaign.yaml> [output_dir]
//   sdlbench_run --campaign <campaign.yaml> --resume <dir>
//   sdlbench_run --campaign <campaign.yaml> --shard i/N [output_dir]
//   sdlbench_run --scenario <name|spec.yaml> [output_dir]
//   sdlbench_run --list-scenarios
//
// Single-experiment mode loads a declarative experiment file (or one of
// the paper-calibrated presets), runs it on the simulated workcell,
// prints the SDL metrics, and writes to the output directory (default
// "sdlbench_out"):
//   series.csv        — per-sample (index, elapsed, score, best) series
//   portal.json       — the full published data portal
//   metrics.txt       — the Table-1-style metrics report
//   config.yaml       — the resolved configuration (for reproduction)
//   artifacts/        — per-workflow timing files (§2.3)
//
// Campaign mode expands the file's solver x batch-size x objective x
// target x replicate grid, runs every cell in parallel on the thread
// pool, prints the per-group aggregate table, and writes campaign.json +
// campaign.csv to the output directory. Every finished cell is also
// checkpointed to <out_dir>/cells.jsonl (campaign/checkpoint.hpp), so a
// killed run resumes with --resume <dir> (completed cells are validated
// against the re-expanded grid and skipped) and a grid can be split
// round-robin across machines with --shard i/N; sdlbench_merge fuses the
// shard journals into one report. All reports are written atomically
// (temp file + rename), and resume/merge reproduce the exact bytes an
// uninterrupted run would have written.
//
// Either mode accepts --json <path> to additionally write the structured
// result document (single runs and campaign cells share one schema,
// "sdlbench.experiment_result.v2").
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/colorpicker.hpp"
#include "core/config_io.hpp"
#include "core/presets.hpp"
#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "data/artifacts.hpp"
#include "metrics/metrics.hpp"
#include "support/atomic_io.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

using namespace sdl;

namespace {

#ifndef SDLBENCH_VERSION
#define SDLBENCH_VERSION "unknown"
#endif
constexpr const char* kVersion = SDLBENCH_VERSION;

void print_usage(std::FILE* stream) {
    std::fprintf(stream,
                 "sdlbench_run — closed-loop color-matching experiment driver\n"
                 "\n"
                 "usage: sdlbench_run <experiment.yaml> [output_dir]\n"
                 "       sdlbench_run --preset <name> [output_dir]\n"
                 "       sdlbench_run --campaign <campaign.yaml> [output_dir]\n"
                 "       sdlbench_run --campaign <campaign.yaml> --resume <dir>\n"
                 "       sdlbench_run --campaign <campaign.yaml> --shard i/N [output_dir]\n"
                 "       sdlbench_run --scenario <name|spec.yaml> [output_dir]\n"
                 "       sdlbench_run --list-scenarios\n"
                 "\n"
                 "options:\n"
                 "  -h, --help         show this help and exit\n"
                 "  --version          print version and exit\n"
                 "  --preset <name>    run a paper-calibrated preset instead of a\n"
                 "                     YAML file; names: quickstart, table1,\n"
                 "                     table1_96well, fig3_portal\n"
                 "  --campaign <file>  run a campaign file: a cartesian grid of\n"
                 "                     workcell x solver x batch_size x objective x\n"
                 "                     target x replicates, in parallel on the\n"
                 "                     thread pool; every finished cell is\n"
                 "                     checkpointed to <out_dir>/cells.jsonl\n"
                 "  --resume <dir>     resume an interrupted campaign from <dir>'s\n"
                 "                     journal: completed cells are validated\n"
                 "                     (spec + per-cell config digests) and\n"
                 "                     skipped; the merged report is byte-\n"
                 "                     identical to an uninterrupted run\n"
                 "  --shard i/N        run only the cells with index = i-1 (mod N)\n"
                 "                     (1-based i) — split one grid round-robin\n"
                 "                     across machines, then fuse the journals\n"
                 "                     with sdlbench_merge. On a single machine\n"
                 "                     prefer sdlbench_fleet: dynamic work-stealing\n"
                 "                     instead of static shards, automatic re-lease\n"
                 "                     on worker death, live-merged reports\n"
                 "  --scenario <ref>   run the experiment on a named workcell\n"
                 "                     scenario (see --list-scenarios), a workcell\n"
                 "                     spec YAML file, or a procedurally generated\n"
                 "                     scenario (generated:seed=<K>; see\n"
                 "                     sdlbench_gen); composes with an experiment\n"
                 "                     file or --preset (default: the quickstart\n"
                 "                     preset)\n"
                 "  --list-scenarios   print the workcell scenario registry and\n"
                 "                     exit\n"
                 "  --json <path>      also write the structured result document\n"
                 "                     (the same schema for single runs and\n"
                 "                     campaign cells); deterministic per spec\n"
                 "\n"
                 "Single runs write series.csv, portal.json, metrics.txt,\n"
                 "config.yaml and per-workflow artifacts to [output_dir] (default\n"
                 "sdlbench_out); campaigns write campaign.json and campaign.csv.\n"
                 "See docs/BENCHMARKS.md for the experiment and campaign YAML\n"
                 "schemas and docs/SCENARIOS.md for workcell scenarios.\n");
}

int list_scenarios() {
    support::TextTable table({"Scenario", "Devices", "Description"});
    table.set_alignment({support::TextTable::Align::Left, support::TextTable::Align::Left,
                         support::TextTable::Align::Left});
    for (const std::string& name : core::scenario_names()) {
        const core::WorkcellSpec spec = core::scenario_by_name(name);
        std::string devices;
        for (const core::DeviceSpec& device : spec.devices) {
            if (!devices.empty()) devices += " ";
            devices += device.name;
            if (device.count > 1) devices += "x" + std::to_string(device.count);
        }
        table.add_row({name, devices, spec.description});
    }
    std::printf("Workcell scenarios (pass to --scenario or a campaign's grid.workcells;\n"
                "YAML sources in examples/scenarios/, schema in docs/SCENARIOS.md):\n\n%s"
                "\nProcedural scenarios: generated:seed=<K> (any K; campaigns may fan\n"
                "out generated:seed=<K>..<M>). See sdlbench_gen and docs/SCENARIOS.md.\n",
                table.str().c_str());
    return 0;
}

core::ColorPickerConfig preset_by_name(const std::string& name) {
    if (name == "quickstart") return core::preset_quickstart();
    if (name == "table1") return core::preset_table1();
    if (name == "table1_96well") return core::preset_table1_96well();
    if (name == "fig3_portal") return core::preset_fig3_portal();
    throw std::runtime_error("unknown preset '" + name +
                             "' (expected quickstart, table1, table1_96well, fig3_portal)");
}

// All report/spec writes go through support::atomic_write so a crash
// mid-write never leaves a torn document for a reader (or a resumed
// campaign) to trust.
void write_text_file(const std::string& path, const std::string& text) {
    support::atomic_write(path, text);
}

int run_single(const core::ColorPickerConfig& config, const std::string& out_dir,
               const std::string& json_path, const core::WorkcellSpec* scenario_spec) {
    std::printf("Experiment: target %s | N=%d | B=%d | solver=%s | workcell=%s | "
                "seed=%llu\n",
                config.target.str().c_str(), config.total_samples, config.batch_size,
                config.solver.c_str(), config.workcell.scenario.c_str(),
                static_cast<unsigned long long>(config.seed));

    core::ColorPickerApp app(config);
    const core::ExperimentOutcome outcome = app.run();

    // sdlbench-lint: allow(printf-float): terminal result line; report.json carries the round-trip score
    std::printf("\nBest match: %s (score %.2f) after %zu samples\n",
                outcome.best_color.str().c_str(), outcome.best_score,
                outcome.samples.size());
    const std::string metrics_text = metrics::render_metrics_table(outcome.metrics);
    std::printf("\n%s", metrics_text.c_str());

    // Outputs.
    std::filesystem::create_directories(out_dir);
    support::CsvWriter csv({"sample", "elapsed_min", "score", "best_so_far"});
    for (const auto& s : outcome.samples) {
        csv.add_row(std::vector<double>{static_cast<double>(s.index),
                                        s.elapsed_minutes, s.score, s.best_so_far});
    }
    csv.save(out_dir + "/series.csv");
    write_text_file(out_dir + "/portal.json", app.portal().to_json().pretty() + "\n");
    write_text_file(out_dir + "/metrics.txt", metrics_text);
    write_text_file(out_dir + "/config.yaml", core::config_to_yaml(app.config()));
    if (scenario_spec != nullptr) {
        // config.yaml captures the topology but not a custom spec's
        // device timings; the resolved spec itself is the full
        // reproduction artifact (rerun with --scenario workcell.yaml).
        write_text_file(out_dir + "/workcell.yaml",
                        core::workcell_spec_to_yaml(*scenario_spec));
    }
    const std::size_t artifacts =
        data::write_run_artifacts(app.event_log(), out_dir + "/artifacts");
    if (!json_path.empty()) {
        write_text_file(json_path,
                        campaign::experiment_result_to_json(app.config(), outcome)
                                .pretty() +
                            "\n");
        std::printf("\nWrote result document to %s\n", json_path.c_str());
    }

    std::printf("\nWrote %s/{series.csv, portal.json, metrics.txt, config.yaml} and "
                "%zu workflow artifacts.\n",
                out_dir.c_str(), artifacts);
    return 0;
}

int run_campaign(const std::string& spec_path, const std::string& out_dir,
                 const std::string& json_path, const std::string& shard_text,
                 bool resume) {
    const campaign::CampaignSpec spec = campaign::campaign_from_file(spec_path);
    const campaign::Shard shard =
        shard_text.empty() ? campaign::Shard{} : campaign::Shard::parse(shard_text);
    std::vector<campaign::CampaignCell> grid = campaign::expand_grid(spec);
    std::printf("Campaign '%s': %zu cells (%zu workcells x %zu solvers x %zu batch "
                "sizes x %zu objectives x %zu targets x %d replicates), N=%d per cell\n",
                spec.name.c_str(), grid.size(), spec.axes.workcells.size(),
                spec.axes.solvers.size(), spec.axes.batch_sizes.size(),
                spec.axes.objectives.size(), spec.axes.targets.size(), spec.replicates,
                spec.base.total_samples);

    // The cells this invocation owns (round-robin slice for --shard).
    std::vector<campaign::CampaignCell> todo;
    for (const campaign::CampaignCell& cell : grid) {
        if (shard.contains(cell.index)) todo.push_back(cell);
    }
    if (!shard.is_whole()) {
        std::printf("Shard %s: %zu of %zu cells\n", shard.str().c_str(), todo.size(),
                    grid.size());
    }

    std::vector<campaign::CellResult> done;
    std::optional<campaign::CheckpointJournal> journal;
    if (resume) {
        campaign::LoadedJournal loaded =
            campaign::load_journal(campaign::journal_path(out_dir), spec, grid);
        if (!(loaded.shard == shard)) {
            std::fprintf(stderr,
                         "error: journal in '%s' belongs to shard %s; rerun with "
                         "--shard %s (or without --shard for a whole-grid journal)\n",
                         out_dir.c_str(), loaded.shard.str().c_str(),
                         loaded.shard.str().c_str());
            return 2;
        }
        done = std::move(loaded.cells);
        // Compact before appending again: drops the torn final line a
        // kill may have left, so new records don't glue onto it.
        std::string compacted;
        for (const std::string& line : loaded.lines) {
            compacted += line;
            compacted += '\n';
        }
        support::atomic_write(campaign::journal_path(out_dir), compacted);
        std::printf("Resuming: %zu cells already journaled%s, %zu still to run\n",
                    done.size(),
                    loaded.dropped_torn_tail ? " (dropped a truncated final record)"
                                             : "",
                    todo.size() - done.size());
        std::vector<bool> have(grid.size(), false);
        for (const campaign::CellResult& result : done) have[result.cell.index] = true;
        std::erase_if(todo, [&](const campaign::CampaignCell& cell) {
            return have[cell.index];
        });
        journal.emplace(campaign::CheckpointJournal::reopen(out_dir));
    } else {
        // Refuse to silently wipe real progress: a journal for this very
        // spec with completed cells almost certainly means a crashed run
        // whose operator forgot --resume.
        const std::size_t progress =
            campaign::journal_progress(campaign::journal_path(out_dir), spec);
        if (progress > 0) {
            std::fprintf(stderr,
                         "error: '%s' already holds a journal with %zu completed "
                         "cell(s) for this campaign — pass --resume %s to continue "
                         "it, or delete %s to start over\n",
                         out_dir.c_str(), progress, out_dir.c_str(),
                         campaign::journal_path(out_dir).c_str());
            return 2;
        }
        std::filesystem::create_directories(out_dir);
        journal.emplace(out_dir, spec, grid.size(), shard);
    }

    campaign::CampaignRunnerOptions options;
    // Serialized by the runner (one mutex around progress + hook), so the
    // journal append and the progress line never interleave.
    options.on_cell_done = [&journal](const campaign::CellResult& result,
                                      std::size_t done_count, std::size_t total) {
        journal->append(result);
        // sdlbench-lint: allow(printf-float): per-cell progress line on stdout; campaign.json is the artifact
        std::printf("  [%zu/%zu] %s best=%.2f (%.1fs)\n", done_count, total,
                    result.cell.config.experiment_id.c_str(), result.outcome.best_score,
                    result.wall_seconds);
    };
    const campaign::CampaignRunner runner(options);
    std::vector<campaign::CellResult> results = runner.run_cells(std::move(todo));

    // Merge resumed cells back in and restore grid order so the report
    // is byte-identical to an uninterrupted run.
    for (campaign::CellResult& result : done) results.push_back(std::move(result));
    std::sort(results.begin(), results.end(),
              [](const campaign::CellResult& a, const campaign::CellResult& b) {
                  return a.cell.index < b.cell.index;
              });

    support::TextTable table({"Workcell", "Solver", "B", "Objective", "Target", "Reps",
                              "Best (mean±sd)", "Total time", "Time per color"});
    table.set_alignment({support::TextTable::Align::Left, support::TextTable::Align::Left,
                         support::TextTable::Align::Right, support::TextTable::Align::Left,
                         support::TextTable::Align::Left, support::TextTable::Align::Right,
                         support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right});
    for (const campaign::CellAggregate& g : campaign::aggregate_results(results)) {
        table.add_row({g.workcell, g.solver, std::to_string(g.batch_size),
                       core::objective_to_string(g.objective), g.target.str(),
                       std::to_string(g.replicates),
                       support::fmt_double(g.best_score.mean(), 2) + " ± " +
                           support::fmt_double(g.best_score.stddev(), 2),
                       support::Duration::minutes(g.total_minutes.mean()).pretty(),
                       support::Duration::minutes(g.time_per_color_minutes.mean())
                           .pretty()});
    }
    std::printf("\n%s", table.str().c_str());

    const std::string doc_text = campaign::write_campaign_outputs(out_dir, spec, results);
    if (!json_path.empty()) {
        write_text_file(json_path, doc_text);
        std::printf("\nWrote result document to %s\n", json_path.c_str());
    }
    std::printf("\nWrote %s/{campaign.json, campaign.csv, cells.jsonl} (%zu cells).\n",
                out_dir.c_str(), results.size());
    if (!shard.is_whole()) {
        std::printf("Shard report covers this shard only; fuse all %zu journals with "
                    "sdlbench_merge.\n",
                    shard.count);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const auto& a : args) {
        if (a == "-h" || a == "--help") {
            print_usage(stdout);
            return 0;
        }
        if (a == "--version") {
            std::printf("sdlbench_run %s\n", kVersion);
            return 0;
        }
        if (a == "--list-scenarios") {
            return list_scenarios();
        }
    }

    std::string preset;
    std::string campaign_path;
    std::string scenario;
    std::string json_path;
    std::string shard;
    std::string resume_dir;
    for (auto it = args.begin(); it != args.end();) {
        const auto take_value = [&](const char* flag, std::string& into) {
            if (std::next(it) == args.end()) {
                std::fprintf(stderr, "error: %s requires a value\n", flag);
                return false;
            }
            into = *std::next(it);
            it = args.erase(it, std::next(it, 2));
            return true;
        };
        if (*it == "--preset") {
            if (!take_value("--preset", preset)) return 2;
        } else if (*it == "--campaign") {
            if (!take_value("--campaign", campaign_path)) return 2;
        } else if (*it == "--scenario") {
            if (!take_value("--scenario", scenario)) return 2;
        } else if (*it == "--json") {
            if (!take_value("--json", json_path)) return 2;
        } else if (*it == "--shard") {
            if (!take_value("--shard", shard)) return 2;
        } else if (*it == "--resume") {
            if (!take_value("--resume", resume_dir)) return 2;
        } else if (!it->empty() && (*it)[0] == '-') {
            std::fprintf(stderr, "error: unknown flag '%s'\n", it->c_str());
            return 2;
        } else {
            ++it;
        }
    }
    if ((!shard.empty() || !resume_dir.empty()) && campaign_path.empty()) {
        std::fprintf(stderr, "error: %s only applies to --campaign runs\n",
                     shard.empty() ? "--resume" : "--shard");
        return 2;
    }
    if (!resume_dir.empty() && !args.empty()) {
        std::fprintf(stderr,
                     "error: --resume <dir> already names the output directory; "
                     "drop the positional '%s'\n",
                     args[0].c_str());
        return 2;
    }

    const bool has_mode_flag =
        !preset.empty() || !campaign_path.empty() || !scenario.empty();
    if (!preset.empty() && !campaign_path.empty()) {
        std::fprintf(stderr, "error: --preset and --campaign are mutually exclusive\n");
        return 2;
    }
    if (!scenario.empty() && !campaign_path.empty()) {
        std::fprintf(stderr,
                     "error: --scenario applies to single runs; campaigns sweep "
                     "scenarios via the file's grid.workcells axis\n");
        return 2;
    }
    const bool positional_is_file =
        !args.empty() && (args[0].ends_with(".yaml") || args[0].ends_with(".yml"));
    // With only --scenario, a YAML positional is the experiment file the
    // scenario composes with, not the output directory.
    const bool scenario_with_file =
        preset.empty() && campaign_path.empty() && positional_is_file;
    const std::size_t max_positionals = has_mode_flag && !scenario_with_file ? 1u : 2u;
    if ((args.empty() && !has_mode_flag) || args.size() > max_positionals) {
        print_usage(stderr);
        return 2;
    }
    if ((!preset.empty() || !campaign_path.empty()) && positional_is_file) {
        std::fprintf(stderr,
                     "error: got both a mode flag and experiment file '%s' — pass one "
                     "or the other\n",
                     args[0].c_str());
        return 2;
    }
    support::set_log_level(support::LogLevel::Warn);
    const std::size_t out_dir_index = (has_mode_flag && !scenario_with_file) ? 0 : 1;
    const std::string out_dir =
        !resume_dir.empty()
            ? resume_dir
            : (args.size() > out_dir_index ? args[out_dir_index] : "sdlbench_out");

    try {
        if (!campaign_path.empty()) {
            return run_campaign(campaign_path, out_dir, json_path, shard,
                                !resume_dir.empty());
        }
        core::ColorPickerConfig config;
        if (!preset.empty()) {
            config = preset_by_name(preset);
        } else if (scenario_with_file || scenario.empty()) {
            config = core::config_from_file(args[0]);
        } else {
            config = core::preset_quickstart();
        }
        std::optional<core::WorkcellSpec> scenario_spec;
        if (!scenario.empty()) {
            scenario_spec = core::resolve_scenario(scenario);
            config = core::apply_workcell_spec(std::move(config), *scenario_spec);
        }
        return run_single(config, out_dir, json_path,
                          scenario_spec ? &*scenario_spec : nullptr);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
