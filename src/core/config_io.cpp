#include "core/config_io.hpp"

#include <filesystem>
#include <limits>
#include <string>

#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "support/atomic_io.hpp"
#include "support/common.hpp"
#include "support/yaml.hpp"

namespace sdl::core {

namespace json = support::json;

void reject_unknown_keys(const json::Value& node, std::initializer_list<const char*> known,
                         const std::string& where) {
    // A null section is an absent one; any other non-mapping would read
    // as all-defaults.
    if (node.is_null()) return;
    for (const auto& [key, value] : node.as_object(where)) {
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

int positive_count(std::int64_t value, const std::string& key) {
    if (value < 1 || value > std::numeric_limits<int>::max()) {
        throw support::ConfigError(key + " must be an integer in [1, " +
                                   std::to_string(std::numeric_limits<int>::max()) +
                                   "], got " + std::to_string(value));
    }
    return static_cast<int>(value);
}

void check_rejection_probabilities(const wei::FaultConfig& faults) {
    const auto check = [](double p, const std::string& key) {
        if (!(p >= 0.0 && p < 1.0)) {
            throw support::ConfigError(key + " must be a probability in [0, 1)");
        }
    };
    check(faults.command_rejection_prob, "faults.command_rejection_prob");
    for (const auto& [module, p] : faults.per_module) {
        check(p, "faults.per_module." + module);
    }
}

void check_well_volume(support::Volume volume) {
    if (!(volume.to_microliters() > 0.0)) {
        throw support::ConfigError("well_volume_ul must be positive");
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
        const std::int64_t v = value.as_array()[i].as_int(where + " channel");
        if (v < 0 || v > 255) {
            throw support::ConfigError(where + " channels must be 0..255");
        }
        return static_cast<std::uint8_t>(v);
    };
    return {channel(0), channel(1), channel(2)};
}

json::Value rgb_to_doc(color::Rgb8 c) {
    json::Value v = json::Value::array();
    v.push_back(static_cast<std::int64_t>(c.r));
    v.push_back(static_cast<std::int64_t>(c.g));
    v.push_back(static_cast<std::int64_t>(c.b));
    return v;
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
                            {"scenario", "sciclops", "pf400", "barty", "manual_handling_s"},
                            "workcell");
        if (const json::Value* scenario = workcell->find("scenario")) {
            config = apply_workcell_spec(
                std::move(config), resolve_scenario(scenario->as_string("workcell.scenario")));
        }
        config.workcell.has_sciclops =
            workcell->get_or("sciclops", config.workcell.has_sciclops);
        config.workcell.has_pf400 = workcell->get_or("pf400", config.workcell.has_pf400);
        config.workcell.has_barty = workcell->get_or("barty", config.workcell.has_barty);
        const double manual_s = workcell->get_or(
            "manual_handling_s", config.workcell.manual_handling.to_seconds());
        if (manual_s < 0.0) {
            throw support::ConfigError("workcell.manual_handling_s cannot be negative");
        }
        config.workcell.manual_handling = support::Duration::seconds(manual_s);
    }
    if (const json::Value* exp = doc.find("experiment")) {
        reject_unknown_keys(*exp,
                            {"target", "total_samples", "batch_size", "solver", "objective",
                             "seed", "stop_threshold", "id", "date", "publish"},
                            "experiment");
        if (const json::Value* target = exp->find("target")) {
            config.target = rgb_from_doc(*target, "experiment.target");
        }
        config.total_samples = positive_count(
            exp->get_or("total_samples", std::int64_t{config.total_samples}),
            "experiment.total_samples");
        config.batch_size = positive_count(
            exp->get_or("batch_size", std::int64_t{config.batch_size}), "experiment.batch_size");
        config.solver = exp->get_or("solver", config.solver);
        if (const json::Value* objective = exp->find("objective")) {
            config.objective =
                objective_from_string(objective->as_string("experiment.objective"));
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
        const std::int64_t rows = plate->get_or("rows", std::int64_t{config.plate_rows});
        const std::int64_t cols = plate->get_or("cols", std::int64_t{config.plate_cols});
        check_plate_format(rows, cols);
        config.plate_rows = static_cast<int>(rows);
        config.plate_cols = static_cast<int>(cols);
    }
    if (const json::Value* volume = doc.find("well_volume_ul")) {
        config.well_volume =
            support::Volume::microliters(volume->as_double("well_volume_ul"));
        check_well_volume(config.well_volume);
    }
    if (const json::Value* faults = doc.find("faults")) {
        reject_unknown_keys(*faults, {"command_rejection_prob"}, "faults");
        config.faults.command_rejection_prob =
            faults->get_or("command_rejection_prob", 0.0);
        check_rejection_probabilities(config.faults);
    }
    if (const json::Value* retry = doc.find("retry")) {
        reject_unknown_keys(*retry, {"max_attempts", "human_rescue"}, "retry");
        config.retry.max_attempts = positive_count(
            retry->get_or("max_attempts", std::int64_t{config.retry.max_attempts}),
            "retry.max_attempts");
        config.retry.human_rescue = retry->get_or("human_rescue", config.retry.human_rescue);
    }
    return config;
}

ColorPickerConfig config_from_yaml(std::string_view text) {
    return config_from_doc(support::yaml::parse(text));
}

json::Value experiment_doc_from_file(const std::string& path, std::string_view what) {
    json::Value doc = support::yaml::parse(support::read_file(path, what));
    if (doc.is_object()) {
        if (json::Value* workcell = doc.as_object().find("workcell")) {
            if (const json::Value* scenario = workcell->find("scenario")) {
                const std::string base_dir =
                    std::filesystem::path(path).parent_path().string();
                workcell->set("scenario", rebase_scenario_ref(
                                              scenario->as_string("workcell.scenario"),
                                              base_dir));
            }
        }
    }
    return doc;
}

ColorPickerConfig config_from_file(const std::string& path) {
    return config_from_doc(experiment_doc_from_file(path, "experiment file"));
}

json::Value config_to_doc(const ColorPickerConfig& config) {
    json::Value doc = json::Value::object();
    json::Value exp = json::Value::object();
    exp.set("target", rgb_to_doc(config.target));
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
