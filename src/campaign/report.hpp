// Campaign reporting: per-group aggregation plus JSON/CSV serialization.
//
// One result schema serves both single experiments (sdlbench_run --json)
// and campaign cells, so downstream tooling parses one shape:
// "sdlbench.experiment_result.v2" (v2 added the `workcell` scenario
// name). Campaign documents ("sdlbench.campaign_result.v2") wrap a list
// of cell results plus replicate-aggregated statistics. Everything
// serialized here is modeled (simulated) time — host wall time is
// deliberately kept out so the same spec yields byte-identical JSON on
// every run.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"

namespace sdl::campaign {

/// Statistics over the replicates of one grid point
/// (workcell, solver, batch_size, objective, target).
struct CellAggregate {
    std::string workcell;
    std::string solver;
    int batch_size = 1;
    core::Objective objective = core::Objective::RgbEuclidean;
    color::Rgb8 target;
    std::size_t replicates = 0;
    support::OnlineStats best_score;
    support::OnlineStats total_minutes;          ///< modeled experiment time
    support::OnlineStats time_per_color_minutes;
    support::OnlineStats batches_run;
    support::OnlineStats commands_completed;
};

/// Groups results by grid point (first-seen order) and accumulates the
/// replicate statistics.
[[nodiscard]] std::vector<CellAggregate> aggregate_results(
    std::span<const CellResult> results);

/// The shared result schema ("sdlbench.experiment_result.v2"): experiment
/// id, resolved knobs incl. the workcell scenario, the Figure-4 sample
/// series, best match, counters, and the Table-1 metrics.
[[nodiscard]] support::json::Value experiment_result_to_json(
    const core::ColorPickerConfig& config, const core::ExperimentOutcome& outcome);

/// One worker death attributed to a quarantined cell.
struct CellCrash {
    int slot = -1;       ///< fleet worker slot
    int generation = 0;  ///< respawn generation of that slot (0 = original)
    long pid = -1;
    std::string reason;  ///< e.g. "signal 9", "heartbeat timeout"
};

/// A cell removed from the schedule by crash-loop containment: it killed
/// `crashes.size()` distinct worker incarnations and was written off
/// instead of re-leased forever. Reported, never silently dropped.
struct QuarantinedCell {
    CampaignCell cell;
    std::vector<CellCrash> crashes;
};

/// The campaign document ("sdlbench.campaign_result.v2"): spec echo,
/// per-cell results (each recording its workcell scenario), aggregates.
/// Deterministic for a given spec. `quarantined` cells (fleet crash-loop
/// containment) appear under a conditional top-level "quarantined" key —
/// campaigns without one keep their pre-existing bytes.
[[nodiscard]] support::json::Value campaign_results_to_json(
    const CampaignSpec& spec, std::span<const CellResult> results,
    std::span<const QuarantinedCell> quarantined = {});

/// One summary row per cell (no sample series) for spreadsheet use.
/// Numeric cells use shortest-round-trip formatting (support::
/// fmt_roundtrip), so scores and times in the CSV parse back to exactly
/// the doubles campaign.json carries.
[[nodiscard]] std::string campaign_results_to_csv(std::span<const CellResult> results);

/// Writes the campaign document set — campaign.json + campaign.csv — to
/// `out_dir` (created if needed), both through support::atomic_write so a
/// crash mid-write cannot leave a torn report that a resume would then
/// trust. Returns the campaign.json text (for `--json` duplication).
std::string write_campaign_outputs(const std::string& out_dir, const CampaignSpec& spec,
                                   std::span<const CellResult> results,
                                   std::span<const QuarantinedCell> quarantined = {});

}  // namespace sdl::campaign
