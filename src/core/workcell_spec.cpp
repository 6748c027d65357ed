#include "core/workcell_spec.hpp"

#include <algorithm>
#include <set>
#include <type_traits>

#include "core/config_io.hpp"
#include "support/atomic_io.hpp"
#include "support/common.hpp"
#include "support/yaml.hpp"

namespace sdl::core {

namespace json = support::json;
using support::Duration;
using support::Volume;

DeviceKind device_kind_from_string(const std::string& name) {
    if (name == "sciclops") return DeviceKind::Sciclops;
    if (name == "pf400") return DeviceKind::Pf400;
    if (name == "ot2") return DeviceKind::Ot2;
    if (name == "barty") return DeviceKind::Barty;
    if (name == "camera") return DeviceKind::Camera;
    throw support::ConfigError("unknown device kind '" + name +
                               "' (expected sciclops | pf400 | ot2 | barty | camera)");
}

const char* device_kind_to_string(DeviceKind kind) {
    switch (kind) {
        case DeviceKind::Sciclops: return "sciclops";
        case DeviceKind::Pf400: return "pf400";
        case DeviceKind::Ot2: return "ot2";
        case DeviceKind::Barty: return "barty";
        case DeviceKind::Camera: return "camera";
    }
    return "ot2";
}

namespace {

/// What a device option's value must be.
enum class Rule { Count, NonNegative, Capacity, Probability };

/// The one list of device options: each kind's keys in the order
/// workcell_spec_of writes them, with each key's rule and the config field
/// it sets. The field's type says how a value is read and written: an int
/// is an integer, a Duration seconds (scaled by timing_scale), a Volume
/// milliliters, a double the number itself. Calls
/// `visit(kind, key, rule, field)` once per option.
template <typename Config, typename Visit>
void visit_device_options(Config& c, Visit&& visit) {
    using enum DeviceKind;
    visit(Sciclops, "towers", Rule::Count, c.sciclops.towers);
    visit(Sciclops, "plates_per_tower", Rule::Count, c.sciclops.plates_per_tower);
    visit(Sciclops, "get_plate_s", Rule::NonNegative, c.sciclops.timing.get_plate);
    visit(Pf400, "transfer_s", Rule::NonNegative, c.pf400.timing.transfer);
    visit(Ot2, "protocol_overhead_s", Rule::NonNegative, c.ot2.timing.protocol_overhead);
    visit(Ot2, "per_well_s", Rule::NonNegative, c.ot2.timing.per_well);
    visit(Ot2, "dispense_cv", Rule::Probability, c.ot2.dispense_cv);
    visit(Ot2, "dispense_sigma_ul", Rule::NonNegative, c.ot2.dispense_sigma_ul);
    visit(Ot2, "reservoir_capacity_ml", Rule::Capacity, c.ot2.reservoir_capacity);
    visit(Ot2, "clog_prob", Rule::Probability, c.ot2.clog_prob);
    visit(Ot2, "dye_drift_per_well", Rule::NonNegative, c.ot2.dye_drift_per_well);
    visit(Barty, "fill_s", Rule::NonNegative, c.barty.timing.fill);
    visit(Barty, "drain_s", Rule::NonNegative, c.barty.timing.drain);
    visit(Barty, "refill_s", Rule::NonNegative, c.barty.timing.refill);
    visit(Barty, "prime_s", Rule::NonNegative, c.barty.timing.prime);
    visit(Barty, "bulk_capacity_ml", Rule::Capacity, c.barty.bulk_capacity);
    visit(Camera, "capture_s", Rule::NonNegative, c.camera.timing.capture);
    visit(Camera, "glitch_prob", Rule::Probability, c.camera.glitch_prob);
    visit(Camera, "drift_per_frame", Rule::NonNegative, c.camera.drift_per_frame);
}

void read_option(const json::Value& value, int& field) {
    field = static_cast<int>(value.as_int());
}
void read_option(const json::Value& value, double& field) { field = value.as_double(); }
void read_option(const json::Value& value, Duration& field) {
    field = Duration::seconds(value.as_double());
}
void read_option(const json::Value& value, Volume& field) {
    field = Volume::milliliters(value.as_double());
}

json::Value option_value(int field) { return field; }
json::Value option_value(double field) { return field; }
json::Value option_value(Duration field) { return field.to_seconds(); }
json::Value option_value(Volume field) { return field.to_milliliters(); }

/// The rule of `kind`'s option `key`; throws ConfigError when the kind
/// has no such option.
Rule option_rule(DeviceKind kind, const std::string& key) {
    static const ColorPickerConfig kTable;  // visited for its kinds, keys and rules
    std::optional<Rule> rule;
    visit_device_options(kTable, [&](DeviceKind k, const char* name, Rule r, const auto&) {
        if (k == kind && key == name) rule = r;
    });
    if (!rule) {
        throw support::ConfigError("unknown option '" + key + "' for device kind '" +
                                   device_kind_to_string(kind) + "'");
    }
    return *rule;
}

/// Range-checks one device option so bad values fail at parse time with
/// the key's name, not deep inside the simulator.
void check_option_value(Rule rule, const std::string& key, const json::Value& value) {
    const std::string where = "device option '" + key + "'";
    switch (rule) {
        case Rule::Count: (void)positive_count(value.as_int(where), where); return;
        case Rule::Probability:
            if (const double p = value.as_double(where); p < 0.0 || p > 1.0) {
                throw support::ConfigError(where + " must be a probability in [0, 1]");
            }
            return;
        case Rule::Capacity:
            if (value.as_double(where) <= 0.0) {
                throw support::ConfigError(where + " must be a positive capacity");
            }
            return;
        case Rule::NonNegative:
            if (value.as_double(where) < 0.0) {
                throw support::ConfigError(where + " cannot be negative");
            }
            return;
    }
}

/// Whether a resolved workcell mounts `kind` robot-run; the ot2 and the
/// camera are always mounted.
bool mounted(const WorkcellTopology& topology, DeviceKind kind) {
    switch (kind) {
        case DeviceKind::Sciclops: return topology.has_sciclops;
        case DeviceKind::Pf400: return topology.has_pf400;
        case DeviceKind::Barty: return topology.has_barty;
        case DeviceKind::Ot2:
        case DeviceKind::Camera: return true;
    }
    return true;
}

}  // namespace

void validate_workcell_spec(const WorkcellSpec& spec) {
    if (spec.name.empty()) throw support::ConfigError("workcell spec needs a name");
    if (spec.timing_scale <= 0.0) {
        throw support::ConfigError("workcell timing_scale must be positive");
    }
    if (spec.manual_handling < Duration::zero()) {
        throw support::ConfigError("workcell manual_handling_s cannot be negative");
    }
    check_plate_format(spec.plate_rows, spec.plate_cols);

    std::set<DeviceKind> kinds;
    for (const DeviceSpec& device : spec.devices) {
        const std::string name = device_kind_to_string(device.kind);
        // Each instance registers under its kind's name, so a second
        // entry of a kind would collide with the first.
        if (!kinds.insert(device.kind).second) {
            throw support::ConfigError("duplicate device name '" + name +
                                       "' in workcell spec '" + spec.name + "'");
        }
        if (device.options.is_object()) {
            for (const auto& [key, value] : device.options.as_object()) {
                check_option_value(option_rule(device.kind, key), key, value);
            }
        }
    }
    if (kinds.count(DeviceKind::Ot2) == 0) {
        throw support::ConfigError("workcell spec '" + spec.name + "' must mount an ot2");
    }
    if (kinds.count(DeviceKind::Camera) == 0) {
        throw support::ConfigError("workcell spec '" + spec.name +
                                   "' must mount a camera (the loop's only sensor)");
    }
    if (spec.faults) {
        check_rejection_probabilities(*spec.faults);
        if (spec.faults->rejection_latency < Duration::zero()) {
            throw support::ConfigError("faults.rejection_latency_s cannot be negative");
        }
    }
}

WorkcellSpec workcell_spec_from_doc(const json::Value& doc) {
    if (!doc.is_object()) {
        throw support::ConfigError("workcell spec file must be a YAML mapping");
    }
    reject_unknown_keys(doc, {"workcell", "plate", "devices", "faults"},
                        "workcell spec file");
    const json::Value* header = doc.find("workcell");
    if (header == nullptr) {
        throw support::ConfigError(
            "workcell spec file must have a 'workcell' section (experiment and "
            "campaign files are loaded by sdlbench_run / --campaign instead)");
    }

    WorkcellSpec spec;
    reject_unknown_keys(*header,
                        {"name", "description", "timing_scale", "manual_handling_s"},
                        "workcell");
    if (header->find("name") == nullptr) {
        // Without this, a nameless file would inherit the struct default
        // "baseline" and masquerade as the registry scenario in reports.
        throw support::ConfigError("workcell spec files need an explicit name");
    }
    spec.name = header->get_or("name", spec.name);
    spec.description = header->get_or("description", spec.description);
    spec.timing_scale = header->get_or("timing_scale", spec.timing_scale);
    spec.manual_handling = Duration::seconds(
        header->get_or("manual_handling_s", spec.manual_handling.to_seconds()));

    if (const json::Value* plate = doc.find("plate")) {
        reject_unknown_keys(*plate, {"rows", "cols"}, "plate");
        std::optional<std::int64_t> rows;
        std::optional<std::int64_t> cols;
        if (const json::Value* v = plate->find("rows")) rows = v->as_int("plate.rows");
        if (const json::Value* v = plate->find("cols")) cols = v->as_int("plate.cols");
        check_plate_format(rows, cols);
        if (rows) spec.plate_rows = static_cast<int>(*rows);
        if (cols) spec.plate_cols = static_cast<int>(*cols);
    }

    const json::Value* devices = doc.find("devices");
    if (devices == nullptr || !devices->is_array()) {
        throw support::ConfigError(
            "workcell spec needs a 'devices' list (the instrument roster)");
    }
    for (const json::Value& entry : devices->as_array()) {
        if (!entry.is_object() || !entry.contains("kind")) {
            throw support::ConfigError("each devices entry needs a 'kind'");
        }
        DeviceSpec device;
        device.kind = device_kind_from_string(entry.at("kind").as_string("device kind"));
        const std::string kind_name = device_kind_to_string(device.kind);
        const std::string name = entry.get_or("name", kind_name);
        if (name != kind_name) {
            // The Figure-2 workflows address modules by their kind names,
            // so a renamed instance would never receive a command.
            throw support::ConfigError(
                "device '" + name + "': custom instance names are not "
                "supported (modules register under their kind name)");
        }
        for (const auto& [key, value] : entry.as_object()) {
            if (key == "kind" || key == "name") continue;
            (void)option_rule(device.kind, key);
            device.options.set(key, value);
        }
        spec.devices.push_back(std::move(device));
    }

    if (const json::Value* faults = doc.find("faults")) {
        reject_unknown_keys(
            *faults, {"command_rejection_prob", "rejection_latency_s", "per_module"},
            "faults");
        wei::FaultConfig fc;
        fc.command_rejection_prob = faults->get_or("command_rejection_prob", 0.0);
        fc.rejection_latency = Duration::seconds(
            faults->get_or("rejection_latency_s", fc.rejection_latency.to_seconds()));
        if (const json::Value* per_module = faults->find("per_module")) {
            for (const auto& [module, prob] : per_module->as_object("faults.per_module")) {
                fc.per_module[module] = prob.as_double("faults.per_module." + module);
            }
        }
        spec.faults = std::move(fc);
    }

    validate_workcell_spec(spec);
    return spec;
}

WorkcellSpec workcell_spec_from_yaml(std::string_view text) {
    return workcell_spec_from_doc(support::yaml::parse(text));
}

WorkcellSpec workcell_spec_from_file(const std::string& path) {
    return workcell_spec_from_yaml(support::read_file(path, "workcell spec"));
}

json::Value workcell_spec_to_doc(const WorkcellSpec& spec) {
    json::Value doc = json::Value::object();
    json::Value header = json::Value::object();
    header.set("name", spec.name);
    if (!spec.description.empty()) header.set("description", spec.description);
    header.set("timing_scale", spec.timing_scale);
    header.set("manual_handling_s", spec.manual_handling.to_seconds());
    doc.set("workcell", std::move(header));

    if (spec.plate_rows || spec.plate_cols) {
        json::Value plate = json::Value::object();
        if (spec.plate_rows) plate.set("rows", *spec.plate_rows);
        if (spec.plate_cols) plate.set("cols", *spec.plate_cols);
        doc.set("plate", std::move(plate));
    }

    json::Value devices = json::Value::array();
    for (const DeviceSpec& device : spec.devices) {
        json::Value entry = json::Value::object();
        entry.set("kind", device_kind_to_string(device.kind));
        if (device.options.is_object()) {
            for (const auto& [key, value] : device.options.as_object()) {
                entry.set(key, value);
            }
        }
        devices.push_back(std::move(entry));
    }
    doc.set("devices", std::move(devices));

    if (spec.faults) {
        json::Value faults = json::Value::object();
        faults.set("command_rejection_prob", spec.faults->command_rejection_prob);
        faults.set("rejection_latency_s", spec.faults->rejection_latency.to_seconds());
        if (!spec.faults->per_module.empty()) {
            json::Value per_module = json::Value::object();
            for (const auto& [module, prob] : spec.faults->per_module) {
                per_module.set(module, prob);
            }
            faults.set("per_module", std::move(per_module));
        }
        doc.set("faults", std::move(faults));
    }
    return doc;
}

std::string workcell_spec_to_yaml(const WorkcellSpec& spec) {
    return support::yaml::dump(workcell_spec_to_doc(spec));
}

ColorPickerConfig apply_workcell_spec(ColorPickerConfig config, const WorkcellSpec& spec) {
    validate_workcell_spec(spec);

    // The spec fully determines the hardware: start every device from its
    // paper-calibrated defaults so applying a spec is idempotent.
    config.sciclops = devices::SciclopsConfig{};
    config.pf400 = devices::Pf400Config{};
    config.ot2 = devices::Ot2Config{};
    config.barty = devices::BartyConfig{};
    config.camera = devices::CameraConfig{};

    const auto listed = [&spec](DeviceKind kind) {
        return std::ranges::any_of(spec.devices,
                                   [kind](const DeviceSpec& d) { return d.kind == kind; });
    };
    WorkcellTopology topology;
    topology.scenario = spec.name;
    topology.has_sciclops = listed(DeviceKind::Sciclops);
    topology.has_pf400 = listed(DeviceKind::Pf400);
    topology.has_barty = listed(DeviceKind::Barty);
    topology.manual_handling = spec.manual_handling * spec.timing_scale;

    for (const DeviceSpec& device : spec.devices) {
        visit_device_options(config, [&](DeviceKind kind, const char* key, Rule, auto& field) {
            const json::Value* value = kind == device.kind ? device.options.find(key) : nullptr;
            if (value != nullptr) read_option(*value, field);
        });
    }
    // Every duration scales, a hand-run device's too.
    visit_device_options(config, [k = spec.timing_scale](DeviceKind, const char*, Rule,
                                                         auto& field) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>, Duration>) {
            field *= k;
        }
    });

    config.workcell = topology;
    if (spec.plate_rows) config.plate_rows = *spec.plate_rows;
    if (spec.plate_cols) config.plate_cols = *spec.plate_cols;
    if (spec.faults) config.faults = *spec.faults;
    return config;
}

WorkcellSpec workcell_spec_of(const ColorPickerConfig& config) {
    const WorkcellTopology& topology = config.workcell;
    WorkcellSpec spec;
    spec.name = topology.scenario;
    spec.manual_handling = topology.manual_handling;
    spec.plate_rows = config.plate_rows;
    spec.plate_cols = config.plate_cols;
    spec.faults = config.faults;
    visit_device_options(config, [&](DeviceKind kind, const char* key, Rule,
                                     const auto& field) {
        if (!mounted(topology, kind)) return;
        if (spec.devices.empty() || spec.devices.back().kind != kind) {
            spec.devices.push_back(DeviceSpec{kind});
        }
        spec.devices.back().options.set(key, option_value(field));
    });
    return spec;
}

}  // namespace sdl::core
