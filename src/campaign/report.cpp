#include "campaign/report.hpp"

#include <filesystem>

#include "core/config_io.hpp"
#include "core/scenario_gen.hpp"
#include "support/atomic_io.hpp"
#include "support/csv.hpp"

namespace sdl::campaign {

namespace json = support::json;

json::Value rgb_to_json(color::Rgb8 c) {
    json::Value v = json::Value::array();
    v.push_back(static_cast<std::int64_t>(c.r));
    v.push_back(static_cast<std::int64_t>(c.g));
    v.push_back(static_cast<std::int64_t>(c.b));
    return v;
}

namespace {

json::Value stats_to_json(const support::OnlineStats& s) {
    json::Value v = json::Value::object();
    v.set("mean", s.mean());
    v.set("stddev", s.stddev());
    v.set("min", s.min());
    v.set("max", s.max());
    return v;
}

}  // namespace

std::vector<CellAggregate> aggregate_results(std::span<const CellResult> results) {
    std::vector<CellAggregate> groups;
    for (const CellResult& result : results) {
        const CampaignCell& cell = result.cell;
        CellAggregate* group = nullptr;
        for (CellAggregate& g : groups) {
            if (g.workcell == cell.workcell && g.solver == cell.solver &&
                g.batch_size == cell.batch_size && g.objective == cell.objective &&
                g.target == cell.target) {
                group = &g;
                break;
            }
        }
        if (group == nullptr) {
            CellAggregate fresh;
            fresh.workcell = cell.workcell;
            fresh.solver = cell.solver;
            fresh.batch_size = cell.batch_size;
            fresh.objective = cell.objective;
            fresh.target = cell.target;
            groups.push_back(std::move(fresh));
            group = &groups.back();
        }
        ++group->replicates;
        group->best_score.add(result.outcome.best_score);
        group->total_minutes.add(result.outcome.metrics.total_time.to_minutes());
        group->time_per_color_minutes.add(
            result.outcome.metrics.time_per_color.to_minutes());
        group->batches_run.add(static_cast<double>(result.outcome.batches_run));
        group->commands_completed.add(
            static_cast<double>(result.outcome.metrics.commands_completed));
    }
    return groups;
}

json::Value experiment_result_to_json(const core::ColorPickerConfig& config,
                                      const core::ExperimentOutcome& outcome) {
    json::Value doc = json::Value::object();
    doc.set("schema", "sdlbench.experiment_result.v2");
    doc.set("experiment_id", outcome.experiment_id);
    doc.set("workcell", config.workcell.scenario);
    doc.set("solver", config.solver);
    doc.set("objective", core::objective_to_string(config.objective));
    doc.set("target", rgb_to_json(config.target));
    doc.set("batch_size", config.batch_size);
    doc.set("total_samples", config.total_samples);
    doc.set("seed", static_cast<std::int64_t>(config.seed));
    json::Value plate = json::Value::object();
    plate.set("rows", config.plate_rows);
    plate.set("cols", config.plate_cols);
    doc.set("plate", std::move(plate));

    json::Value samples = json::Value::array();
    for (const core::SamplePoint& s : outcome.samples) {
        json::Value point = json::Value::object();
        point.set("index", s.index);
        point.set("elapsed_min", s.elapsed_minutes);
        point.set("score", s.score);
        point.set("best_so_far", s.best_so_far);
        point.set("measured", rgb_to_json(s.measured));
        samples.push_back(std::move(point));
    }
    doc.set("samples", std::move(samples));

    json::Value best = json::Value::object();
    best.set("score", outcome.best_score);
    best.set("color", rgb_to_json(outcome.best_color));
    json::Value ratios = json::Value::array();
    for (const double r : outcome.best_ratios) ratios.push_back(r);
    best.set("ratios", std::move(ratios));
    doc.set("best", std::move(best));
    doc.set("reached_threshold", outcome.reached_threshold);

    json::Value counts = json::Value::object();
    counts.set("plates_used", outcome.plates_used);
    counts.set("replenishes", outcome.replenishes);
    counts.set("batches_run", outcome.batches_run);
    counts.set("frame_retakes", outcome.frame_retakes);
    counts.set("wells_rescued", static_cast<std::int64_t>(outcome.wells_rescued_total));
    // Conditional key: runs without the clogged-tip fault chain keep
    // their pre-existing bytes.
    if (outcome.reprimes > 0) counts.set("reprimes", outcome.reprimes);
    doc.set("counts", std::move(counts));

    const metrics::SdlMetrics& m = outcome.metrics;
    json::Value table1 = json::Value::object();
    table1.set("time_without_humans_min", m.time_without_humans.to_minutes());
    table1.set("commands_completed", static_cast<std::int64_t>(m.commands_completed));
    table1.set("synthesis_min", m.synthesis_time.to_minutes());
    table1.set("transfer_min", m.transfer_time.to_minutes());
    table1.set("total_min", m.total_time.to_minutes());
    table1.set("total_colors", m.total_colors);
    table1.set("time_per_color_min", m.time_per_color.to_minutes());
    table1.set("mean_upload_interval_min", m.mean_upload_interval.to_minutes());
    table1.set("interventions", m.interventions);
    doc.set("metrics", std::move(table1));
    return doc;
}

json::Value campaign_results_to_json(const CampaignSpec& spec,
                                     std::span<const CellResult> results,
                                     std::span<const QuarantinedCell> quarantined) {
    json::Value doc = json::Value::object();
    doc.set("schema", "sdlbench.campaign_result.v2");

    json::Value campaign = json::Value::object();
    campaign.set("name", spec.name);
    campaign.set("replicates", spec.replicates);
    campaign.set("base_seed", static_cast<std::int64_t>(spec.base_seed));
    campaign.set("seed_mode",
                 spec.seed_mode == SeedMode::PerCell ? "per_cell" : "per_replicate");
    campaign.set("cells", static_cast<std::int64_t>(results.size()));
    campaign.set("total_samples", spec.base.total_samples);
    json::Value workcells = json::Value::array();
    for (const std::string& w : normalize(spec).axes.workcells) workcells.push_back(w);
    campaign.set("workcells", std::move(workcells));
    doc.set("campaign", std::move(campaign));

    json::Value cells = json::Value::array();
    for (const CellResult& result : results) {
        json::Value entry = json::Value::object();
        json::Value cell = json::Value::object();
        cell.set("index", static_cast<std::int64_t>(result.cell.index));
        cell.set("workcell", result.cell.workcell);
        cell.set("solver", result.cell.solver);
        cell.set("batch_size", result.cell.batch_size);
        cell.set("objective", core::objective_to_string(result.cell.objective));
        cell.set("target", rgb_to_json(result.cell.target));
        cell.set("replicate", result.cell.replicate);
        cell.set("seed", static_cast<std::int64_t>(result.cell.config.seed));
        if (result.cell.generated_seed) {
            // Generated cells carry their scenario's difficulty score so a
            // sweep over the scenario space is self-describing. The keys
            // are conditional: hand-written-scenario campaigns keep their
            // pre-existing bytes.
            cell.set("generated_seed",
                     static_cast<std::int64_t>(*result.cell.generated_seed));
            cell.set("difficulty", core::generated_difficulty(*result.cell.generated_seed));
        }
        entry.set("cell", std::move(cell));
        entry.set("result", experiment_result_to_json(result.cell.config, result.outcome));
        cells.push_back(std::move(entry));
    }
    doc.set("cells", std::move(cells));

    json::Value aggregates = json::Value::array();
    for (const CellAggregate& g : aggregate_results(results)) {
        json::Value entry = json::Value::object();
        entry.set("workcell", g.workcell);
        entry.set("solver", g.solver);
        entry.set("batch_size", g.batch_size);
        entry.set("objective", core::objective_to_string(g.objective));
        entry.set("target", rgb_to_json(g.target));
        entry.set("replicates", static_cast<std::int64_t>(g.replicates));
        entry.set("best_score", stats_to_json(g.best_score));
        entry.set("total_min", stats_to_json(g.total_minutes));
        entry.set("time_per_color_min", stats_to_json(g.time_per_color_minutes));
        entry.set("batches_run", stats_to_json(g.batches_run));
        entry.set("commands_completed", stats_to_json(g.commands_completed));
        aggregates.push_back(std::move(entry));
    }
    doc.set("aggregates", std::move(aggregates));

    // Conditional key (same pattern as generated_seed):
    // only crash-loop-contained fleet runs carry it, so every other
    // campaign document keeps its pre-existing bytes.
    if (!quarantined.empty()) {
        json::Value quarantine_list = json::Value::array();
        for (const QuarantinedCell& q : quarantined) {
            json::Value entry = json::Value::object();
            entry.set("index", static_cast<std::int64_t>(q.cell.index));
            entry.set("workcell", q.cell.workcell);
            entry.set("solver", q.cell.solver);
            entry.set("batch_size", q.cell.batch_size);
            entry.set("objective", core::objective_to_string(q.cell.objective));
            entry.set("target", rgb_to_json(q.cell.target));
            entry.set("replicate", q.cell.replicate);
            entry.set("seed", static_cast<std::int64_t>(q.cell.config.seed));
            json::Value crashes = json::Value::array();
            for (const CellCrash& crash : q.crashes) {
                json::Value c = json::Value::object();
                c.set("slot", crash.slot);
                c.set("generation", crash.generation);
                c.set("pid", static_cast<std::int64_t>(crash.pid));
                c.set("reason", crash.reason);
                crashes.push_back(std::move(c));
            }
            entry.set("crashes", std::move(crashes));
            quarantine_list.push_back(std::move(entry));
        }
        doc.set("quarantined", std::move(quarantine_list));
    }
    return doc;
}

std::string campaign_results_to_csv(std::span<const CellResult> results) {
    support::CsvWriter csv({"cell", "workcell", "solver", "batch_size", "objective",
                            "target_r", "target_g", "target_b", "replicate", "seed",
                            "samples", "best_score", "batches_run", "total_min",
                            "time_per_color_min", "commands_completed"});
    for (const CellResult& result : results) {
        const CampaignCell& cell = result.cell;
        const metrics::SdlMetrics& m = result.outcome.metrics;
        csv.add_row(std::vector<std::string>{
            std::to_string(cell.index), cell.workcell, cell.solver,
            std::to_string(cell.batch_size),
            core::objective_to_string(cell.objective), std::to_string(cell.target.r),
            std::to_string(cell.target.g), std::to_string(cell.target.b),
            std::to_string(cell.replicate), std::to_string(cell.config.seed),
            std::to_string(result.outcome.samples.size()),
            support::fmt_roundtrip(result.outcome.best_score),
            std::to_string(result.outcome.batches_run),
            support::fmt_roundtrip(m.total_time.to_minutes()),
            support::fmt_roundtrip(m.time_per_color.to_minutes()),
            std::to_string(m.commands_completed)});
    }
    return csv.str();
}

std::string write_campaign_outputs(const std::string& out_dir, const CampaignSpec& spec,
                                   std::span<const CellResult> results,
                                   std::span<const QuarantinedCell> quarantined) {
    std::filesystem::create_directories(out_dir);
    std::string doc_text = campaign_results_to_json(spec, results, quarantined).pretty();
    doc_text += "\n";
    support::atomic_write(out_dir + "/campaign.json", doc_text);
    support::atomic_write(out_dir + "/campaign.csv", campaign_results_to_csv(results));
    return doc_text;
}

}  // namespace sdl::campaign
