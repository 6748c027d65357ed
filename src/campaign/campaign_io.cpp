#include "campaign/campaign_io.hpp"

#include <cstdint>
#include <filesystem>

#include "core/config_io.hpp"
#include "core/scenario_gen.hpp"
#include "core/scenarios.hpp"
#include "support/common.hpp"
#include "support/yaml.hpp"

namespace sdl::campaign {

namespace json = support::json;

using core::positive_count;
using core::reject_unknown_keys;

namespace {

SeedMode seed_mode_from_string(const std::string& name) {
    if (name == "per_cell") return SeedMode::PerCell;
    if (name == "per_replicate") return SeedMode::PerReplicate;
    throw support::ConfigError("unknown seed_mode '" + name +
                               "' (expected per_cell | per_replicate)");
}

const char* seed_mode_to_string(SeedMode mode) {
    return mode == SeedMode::PerReplicate ? "per_replicate" : "per_cell";
}

}  // namespace

namespace {

CampaignSpec campaign_from_doc(const json::Value& doc) {
    if (!doc.is_object()) {
        throw support::ConfigError("campaign file must be a YAML mapping");
    }
    const json::Value* campaign = doc.find("campaign");
    if (campaign == nullptr) {
        throw support::ConfigError(
            "campaign file must have a 'campaign' section (a plain experiment "
            "file runs with sdlbench_run <file>, not --campaign)");
    }

    CampaignSpec spec;
    reject_unknown_keys(*campaign, {"name", "replicates", "base_seed", "seed_mode"},
                        "campaign");
    spec.name = campaign->get_or("name", spec.name);
    spec.replicates = positive_count(
        campaign->get_or("replicates", std::int64_t{spec.replicates}), "campaign.replicates");
    spec.base_seed = static_cast<std::uint64_t>(
        campaign->get_or("base_seed", static_cast<std::int64_t>(spec.base_seed)));
    if (const json::Value* mode = campaign->find("seed_mode")) {
        spec.seed_mode = seed_mode_from_string(mode->as_string("campaign.seed_mode"));
    }

    if (const json::Value* grid = doc.find("grid")) {
        reject_unknown_keys(
            *grid, {"workcells", "solvers", "batch_sizes", "objectives", "targets"},
            "grid");
        if (const json::Value* workcells = grid->find("workcells")) {
            for (const json::Value& w : workcells->as_array("grid.workcells")) {
                // "generated:seed=K..M" fans out to one entry per seed;
                // other refs pass through unchanged. Overlapping ranges
                // produce duplicate entries, which expand_grid rejects
                // by name.
                for (std::string& ref :
                     core::expand_generated_refs(w.as_string("grid.workcells entry"))) {
                    spec.axes.workcells.push_back(std::move(ref));
                }
            }
        }
        if (const json::Value* solvers = grid->find("solvers")) {
            for (const json::Value& s : solvers->as_array("grid.solvers")) {
                spec.axes.solvers.push_back(s.as_string("grid.solvers entry"));
            }
        }
        if (const json::Value* batches = grid->find("batch_sizes")) {
            for (const json::Value& b : batches->as_array("grid.batch_sizes")) {
                spec.axes.batch_sizes.push_back(
                    positive_count(b.as_int("grid.batch_sizes entry"), "grid.batch_sizes"));
            }
        }
        if (const json::Value* objectives = grid->find("objectives")) {
            for (const json::Value& o : objectives->as_array("grid.objectives")) {
                spec.axes.objectives.push_back(
                    core::objective_from_string(o.as_string("grid.objectives entry")));
            }
        }
        if (const json::Value* targets = grid->find("targets")) {
            for (const json::Value& t : targets->as_array("grid.targets")) {
                spec.axes.targets.push_back(core::rgb_from_doc(t, "grid.targets entry"));
            }
        }
    }

    // Everything else is the per-cell base configuration, in the plain
    // experiment-file schema.
    json::Value base_doc = json::Value::object();
    for (const auto& [key, value] : doc.as_object()) {
        if (key == "campaign" || key == "grid") continue;
        base_doc.set(key, value);
    }
    spec.base = core::config_from_doc(base_doc);
    return normalize(std::move(spec));
}

}  // namespace

CampaignSpec campaign_from_yaml(std::string_view text) {
    return campaign_from_doc(support::yaml::parse(text));
}

CampaignSpec campaign_from_file(const std::string& path) {
    // The base config's workcell.scenario is rebased like an experiment
    // file's; grid.workcells spec-file entries are relative to the
    // campaign file too. Both before parsing: the base section resolves
    // its scenario during parsing.
    json::Value doc = core::experiment_doc_from_file(path, "campaign file");
    if (doc.is_object()) {
        if (json::Value* grid = doc.as_object().find("grid")) {
            if (grid->is_object()) {
                if (json::Value* workcells = grid->as_object().find("workcells")) {
                    if (workcells->is_array()) {
                        const std::string base_dir =
                            std::filesystem::path(path).parent_path().string();
                        for (json::Value& ref : workcells->as_array()) {
                            ref = core::rebase_scenario_ref(
                                ref.as_string("grid.workcells entry"), base_dir);
                        }
                    }
                }
            }
        }
    }
    return campaign_from_doc(doc);
}

std::string campaign_to_yaml(const CampaignSpec& raw) {
    const CampaignSpec spec = normalize(raw);
    json::Value doc = json::Value::object();

    json::Value campaign = json::Value::object();
    campaign.set("name", spec.name);
    campaign.set("replicates", spec.replicates);
    campaign.set("base_seed", static_cast<std::int64_t>(spec.base_seed));
    campaign.set("seed_mode", seed_mode_to_string(spec.seed_mode));
    doc.set("campaign", std::move(campaign));

    json::Value grid = json::Value::object();
    // A non-sweeping workcells axis stays implicit — expand_grid ignores
    // it, and a custom spec's name would not resolve through the
    // registry on reparse.
    if (sweeps_workcells(spec)) {
        json::Value workcells = json::Value::array();
        for (const std::string& w : spec.axes.workcells) workcells.push_back(w);
        grid.set("workcells", std::move(workcells));
    }
    json::Value solvers = json::Value::array();
    for (const std::string& s : spec.axes.solvers) solvers.push_back(s);
    grid.set("solvers", std::move(solvers));
    json::Value batches = json::Value::array();
    for (const int b : spec.axes.batch_sizes) batches.push_back(b);
    grid.set("batch_sizes", std::move(batches));
    json::Value objectives = json::Value::array();
    for (const core::Objective o : spec.axes.objectives) {
        objectives.push_back(core::objective_to_string(o));
    }
    grid.set("objectives", std::move(objectives));
    json::Value targets = json::Value::array();
    for (const color::Rgb8 t : spec.axes.targets) targets.push_back(core::rgb_to_doc(t));
    grid.set("targets", std::move(targets));
    doc.set("grid", std::move(grid));

    const json::Value base_doc = core::config_to_doc(spec.base);
    for (const auto& [key, value] : base_doc.as_object()) {
        doc.set(key, value);
    }
    return support::yaml::dump(doc);
}

}  // namespace sdl::campaign
