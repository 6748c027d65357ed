#include "core/config_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"
#include "support/yaml.hpp"

namespace sdl::core {

namespace json = support::json;

void reject_unknown_keys(const json::Value& node, std::initializer_list<const char*> known,
                         const std::string& where) {
    if (!node.is_object()) return;
    for (const auto& [key, value] : node.as_object()) {
        bool ok = false;
        for (const char* k : known) {
            if (key == k) {
                ok = true;
                break;
            }
        }
        if (!ok) {
            throw support::ConfigError("unknown key '" + key + "' in " + where);
        }
    }
}

Objective objective_from_string(const std::string& name) {
    if (name == "rgb") return Objective::RgbEuclidean;
    if (name == "de76") return Objective::DeltaE76;
    if (name == "de2000") return Objective::DeltaE2000;
    throw support::ConfigError("unknown objective '" + name +
                               "' (expected rgb | de76 | de2000)");
}

const char* objective_to_string(Objective objective) {
    switch (objective) {
        case Objective::RgbEuclidean: return "rgb";
        case Objective::DeltaE76: return "de76";
        case Objective::DeltaE2000: return "de2000";
    }
    return "rgb";
}

color::Rgb8 rgb_from_doc(const json::Value& value, const std::string& where) {
    if (!value.is_array() || value.as_array().size() != 3) {
        throw support::ConfigError(where + " must be a [r, g, b] triple");
    }
    const auto channel = [&](std::size_t i) {
        const std::int64_t v = value.as_array()[i].as_int();
        if (v < 0 || v > 255) {
            throw support::ConfigError(where + " channels must be 0..255");
        }
        return static_cast<std::uint8_t>(v);
    };
    return {channel(0), channel(1), channel(2)};
}

ColorPickerConfig config_from_doc(const json::Value& doc) {
    if (!doc.is_object()) {
        throw support::ConfigError("experiment file must be a YAML mapping");
    }
    reject_unknown_keys(doc,
                        {"experiment", "workcell", "plate", "well_volume_ul", "faults",
                         "retry"},
                        "experiment file");

    ColorPickerConfig config;
    // The workcell section resolves first: a scenario sets the hardware
    // baseline, explicit topology keys refine it, and the plain sections
    // below (plate:, faults:, ...) override whatever the scenario chose.
    if (const json::Value* workcell = doc.find("workcell")) {
        reject_unknown_keys(*workcell,
                            {"scenario", "ot2_count", "sciclops", "pf400", "barty",
                             "manual_handling_s"},
                            "workcell");
        if (const json::Value* scenario = workcell->find("scenario")) {
            config = apply_workcell_spec(std::move(config),
                                         resolve_scenario(scenario->as_string()));
        }
        config.workcell.ot2_count = static_cast<int>(
            workcell->get_or("ot2_count", std::int64_t{config.workcell.ot2_count}));
        config.workcell.has_sciclops =
            workcell->get_or("sciclops", config.workcell.has_sciclops);
        config.workcell.has_pf400 = workcell->get_or("pf400", config.workcell.has_pf400);
        config.workcell.has_barty = workcell->get_or("barty", config.workcell.has_barty);
        config.workcell.manual_handling = support::Duration::seconds(workcell->get_or(
            "manual_handling_s", config.workcell.manual_handling.to_seconds()));
    }
    if (const json::Value* exp = doc.find("experiment")) {
        reject_unknown_keys(*exp,
                            {"target", "total_samples", "batch_size", "solver", "objective",
                             "seed", "stop_threshold", "id", "date", "publish"},
                            "experiment");
        if (const json::Value* target = exp->find("target")) {
            config.target = rgb_from_doc(*target, "experiment.target");
        }
        config.total_samples = static_cast<int>(
            exp->get_or("total_samples", std::int64_t{config.total_samples}));
        config.batch_size =
            static_cast<int>(exp->get_or("batch_size", std::int64_t{config.batch_size}));
        config.solver = exp->get_or("solver", config.solver);
        if (const json::Value* objective = exp->find("objective")) {
            config.objective = objective_from_string(objective->as_string());
        }
        config.seed =
            static_cast<std::uint64_t>(exp->get_or("seed", std::int64_t{1}));
        config.stop_threshold = exp->get_or("stop_threshold", config.stop_threshold);
        config.experiment_id = exp->get_or("id", config.experiment_id);
        config.date = exp->get_or("date", config.date);
        config.publish = exp->get_or("publish", config.publish);
    }
    if (const json::Value* plate = doc.find("plate")) {
        reject_unknown_keys(*plate, {"rows", "cols"}, "plate");
        config.plate_rows =
            static_cast<int>(plate->get_or("rows", std::int64_t{config.plate_rows}));
        config.plate_cols =
            static_cast<int>(plate->get_or("cols", std::int64_t{config.plate_cols}));
    }
    if (const json::Value* volume = doc.find("well_volume_ul")) {
        config.well_volume = support::Volume::microliters(volume->as_double());
    }
    if (const json::Value* faults = doc.find("faults")) {
        reject_unknown_keys(*faults, {"command_rejection_prob"}, "faults");
        config.faults.command_rejection_prob =
            faults->get_or("command_rejection_prob", 0.0);
    }
    if (const json::Value* retry = doc.find("retry")) {
        reject_unknown_keys(*retry, {"max_attempts", "human_rescue"}, "retry");
        config.retry.max_attempts = static_cast<int>(
            retry->get_or("max_attempts", std::int64_t{config.retry.max_attempts}));
        config.retry.human_rescue = retry->get_or("human_rescue", config.retry.human_rescue);
    }
    return config;
}

ColorPickerConfig config_from_yaml(std::string_view text) {
    return config_from_doc(support::yaml::parse(text));
}

ColorPickerConfig config_from_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) throw support::Error("io", "cannot open experiment file '" + path + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    json::Value doc = support::yaml::parse(buffer.str());
    // A workcell.scenario spec-file path is written relative to the
    // experiment file, not to wherever the process happens to run.
    if (doc.is_object()) {
        if (json::Value* workcell = doc.as_object().find("workcell")) {
            if (const json::Value* scenario = workcell->find("scenario")) {
                const std::string base_dir =
                    std::filesystem::path(path).parent_path().string();
                workcell->set("scenario",
                              rebase_scenario_ref(scenario->as_string(), base_dir));
            }
        }
    }
    return config_from_doc(doc);
}

json::Value config_to_doc(const ColorPickerConfig& config) {
    json::Value doc = json::Value::object();
    json::Value exp = json::Value::object();
    json::Value target = json::Value::array();
    target.push_back(static_cast<std::int64_t>(config.target.r));
    target.push_back(static_cast<std::int64_t>(config.target.g));
    target.push_back(static_cast<std::int64_t>(config.target.b));
    exp.set("target", std::move(target));
    exp.set("total_samples", config.total_samples);
    exp.set("batch_size", config.batch_size);
    exp.set("solver", config.solver);
    exp.set("objective", objective_to_string(config.objective));
    exp.set("seed", static_cast<std::int64_t>(config.seed));
    exp.set("stop_threshold", config.stop_threshold);
    if (!config.experiment_id.empty()) exp.set("id", config.experiment_id);
    exp.set("date", config.date);
    exp.set("publish", config.publish);
    doc.set("experiment", std::move(exp));

    json::Value workcell = json::Value::object();
    // A registry scenario name round-trips (config_from_doc re-applies
    // it); a custom spec's name would not resolve, so only the explicit
    // topology fields are written for it.
    if (is_scenario_name(config.workcell.scenario)) {
        workcell.set("scenario", config.workcell.scenario);
    }
    workcell.set("ot2_count", config.workcell.ot2_count);
    workcell.set("sciclops", config.workcell.has_sciclops);
    workcell.set("pf400", config.workcell.has_pf400);
    workcell.set("barty", config.workcell.has_barty);
    workcell.set("manual_handling_s", config.workcell.manual_handling.to_seconds());
    doc.set("workcell", std::move(workcell));

    json::Value plate = json::Value::object();
    plate.set("rows", config.plate_rows);
    plate.set("cols", config.plate_cols);
    doc.set("plate", std::move(plate));
    doc.set("well_volume_ul", config.well_volume.to_microliters());

    json::Value faults = json::Value::object();
    faults.set("command_rejection_prob", config.faults.command_rejection_prob);
    doc.set("faults", std::move(faults));

    json::Value retry = json::Value::object();
    retry.set("max_attempts", config.retry.max_attempts);
    retry.set("human_rescue", config.retry.human_rescue);
    doc.set("retry", std::move(retry));
    return doc;
}

std::string config_to_yaml(const ColorPickerConfig& config) {
    return support::yaml::dump(config_to_doc(config));
}

}  // namespace sdl::core
