#include "core/workcell_spec.hpp"

#include <set>

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

const std::vector<const char*>& option_keys(DeviceKind kind) {
    static const std::vector<const char*> sciclops{"towers", "plates_per_tower",
                                                   "get_plate_s"};
    static const std::vector<const char*> pf400{"transfer_s"};
    static const std::vector<const char*> ot2{"protocol_overhead_s", "per_well_s",
                                              "dispense_cv", "dispense_sigma_ul",
                                              "reservoir_capacity_ml", "clog_prob",
                                              "dye_drift_per_well"};
    static const std::vector<const char*> barty{"fill_s", "drain_s", "refill_s",
                                                "prime_s", "bulk_capacity_ml"};
    static const std::vector<const char*> camera{"capture_s", "glitch_prob",
                                                 "drift_per_frame"};
    switch (kind) {
        case DeviceKind::Sciclops: return sciclops;
        case DeviceKind::Pf400: return pf400;
        case DeviceKind::Ot2: return ot2;
        case DeviceKind::Barty: return barty;
        case DeviceKind::Camera: return camera;
    }
    return ot2;
}

bool is_option_key(DeviceKind kind, const std::string& key) {
    for (const char* k : option_keys(kind)) {
        if (key == k) return true;
    }
    return false;
}

void check_probability(double p, const std::string& where) {
    if (p < 0.0 || p > 1.0) {
        throw support::ConfigError(where + " must be a probability in [0, 1]");
    }
}

/// Range-checks one device option so bad values fail at parse time with
/// the key's name, not deep inside the simulator.
void check_option_value(const std::string& key, const json::Value& value) {
    const std::string where = "device option '" + key + "'";
    if (key == "dispense_cv" || key == "glitch_prob" || key == "clog_prob") {
        check_probability(value.as_double(where), where);
        return;
    }
    if (key == "towers" || key == "plates_per_tower") {
        (void)positive_count(value.as_int(where), where);
        return;
    }
    if (key.ends_with("_ml")) {
        if (value.as_double(where) <= 0.0) {
            throw support::ConfigError(where + " must be a positive capacity");
        }
        return;
    }
    // Durations (*_s) and the absolute pipetting error floor.
    if (value.as_double(where) < 0.0) {
        throw support::ConfigError(where + " cannot be negative");
    }
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
    if ((spec.plate_rows && *spec.plate_rows < 1) ||
        (spec.plate_cols && *spec.plate_cols < 1)) {
        throw support::ConfigError("workcell plate rows/cols must be >= 1");
    }

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
                if (!is_option_key(device.kind, key)) {
                    throw support::ConfigError(
                        "unknown option '" + key + "' for device kind '" +
                        device_kind_to_string(device.kind) + "'");
                }
                check_option_value(key, value);
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
        check_probability(spec.faults->command_rejection_prob,
                          "faults.command_rejection_prob");
        for (const auto& [module, prob] : spec.faults->per_module) {
            check_probability(prob, "faults.per_module." + module);
        }
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
        if (const json::Value* rows = plate->find("rows")) {
            spec.plate_rows = positive_count(rows->as_int("plate.rows"), "plate.rows");
        }
        if (const json::Value* cols = plate->find("cols")) {
            spec.plate_cols = positive_count(cols->as_int("plate.cols"), "plate.cols");
        }
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
            if (!is_option_key(device.kind, key)) {
                throw support::ConfigError("unknown option '" + key +
                                           "' for device kind '" +
                                           device_kind_to_string(device.kind) + "'");
            }
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

namespace {

double opt_double(const json::Value& options, const char* key, double fallback) {
    return options.is_object() ? options.get_or(key, fallback) : fallback;
}

std::int64_t opt_int(const json::Value& options, const char* key, std::int64_t fallback) {
    return options.is_object() ? options.get_or(key, fallback) : fallback;
}

Duration opt_duration(const json::Value& options, const char* key, Duration fallback) {
    return Duration::seconds(opt_double(options, key, fallback.to_seconds()));
}

}  // namespace

ColorPickerConfig apply_workcell_spec(ColorPickerConfig config, const WorkcellSpec& spec) {
    validate_workcell_spec(spec);

    // The spec fully determines the hardware: start every device from its
    // paper-calibrated defaults so applying a spec is idempotent (noise
    // seeds are re-derived from the experiment seed by finalize_config).
    config.sciclops = devices::SciclopsConfig{};
    config.pf400 = devices::Pf400Config{};
    config.ot2 = devices::Ot2Config{};
    config.barty = devices::BartyConfig{};
    config.camera = devices::CameraConfig{};

    WorkcellTopology topology;
    topology.scenario = spec.name;
    topology.has_sciclops = false;
    topology.has_pf400 = false;
    topology.has_barty = false;
    topology.manual_handling = spec.manual_handling * spec.timing_scale;

    for (const DeviceSpec& device : spec.devices) {
        const json::Value& o = device.options;
        switch (device.kind) {
            case DeviceKind::Sciclops: {
                topology.has_sciclops = true;
                devices::SciclopsConfig& c = config.sciclops;
                c.towers = static_cast<int>(opt_int(o, "towers", c.towers));
                c.plates_per_tower =
                    static_cast<int>(opt_int(o, "plates_per_tower", c.plates_per_tower));
                c.timing.get_plate = opt_duration(o, "get_plate_s", c.timing.get_plate);
                break;
            }
            case DeviceKind::Pf400: {
                topology.has_pf400 = true;
                config.pf400.timing.transfer =
                    opt_duration(o, "transfer_s", config.pf400.timing.transfer);
                break;
            }
            case DeviceKind::Ot2: {
                devices::Ot2Config& c = config.ot2;
                c.timing.protocol_overhead =
                    opt_duration(o, "protocol_overhead_s", c.timing.protocol_overhead);
                c.timing.per_well = opt_duration(o, "per_well_s", c.timing.per_well);
                c.dispense_cv = opt_double(o, "dispense_cv", c.dispense_cv);
                c.dispense_sigma_ul = opt_double(o, "dispense_sigma_ul", c.dispense_sigma_ul);
                c.reservoir_capacity = Volume::milliliters(opt_double(
                    o, "reservoir_capacity_ml", c.reservoir_capacity.to_milliliters()));
                c.clog_prob = opt_double(o, "clog_prob", c.clog_prob);
                c.dye_drift_per_well =
                    opt_double(o, "dye_drift_per_well", c.dye_drift_per_well);
                break;
            }
            case DeviceKind::Barty: {
                topology.has_barty = true;
                devices::BartyConfig& c = config.barty;
                c.timing.fill = opt_duration(o, "fill_s", c.timing.fill);
                c.timing.drain = opt_duration(o, "drain_s", c.timing.drain);
                c.timing.refill = opt_duration(o, "refill_s", c.timing.refill);
                c.timing.prime = opt_duration(o, "prime_s", c.timing.prime);
                c.bulk_capacity = Volume::milliliters(
                    opt_double(o, "bulk_capacity_ml", c.bulk_capacity.to_milliliters()));
                break;
            }
            case DeviceKind::Camera: {
                devices::CameraConfig& c = config.camera;
                c.timing.capture = opt_duration(o, "capture_s", c.timing.capture);
                c.glitch_prob = opt_double(o, "glitch_prob", c.glitch_prob);
                c.drift_per_frame = opt_double(o, "drift_per_frame", c.drift_per_frame);
                break;
            }
        }
    }

    const double k = spec.timing_scale;
    config.sciclops.timing.get_plate *= k;
    config.pf400.timing.transfer *= k;
    config.ot2.timing.protocol_overhead *= k;
    config.ot2.timing.per_well *= k;
    config.barty.timing.fill *= k;
    config.barty.timing.drain *= k;
    config.barty.timing.refill *= k;
    config.barty.timing.prime *= k;
    config.camera.timing.capture *= k;

    config.workcell = topology;
    if (spec.plate_rows) config.plate_rows = *spec.plate_rows;
    if (spec.plate_cols) config.plate_cols = *spec.plate_cols;
    if (spec.faults) {
        // Keep the derived seed; the spec sets rates and latency only.
        const std::uint64_t seed = config.faults.seed;
        config.faults = *spec.faults;
        config.faults.seed = seed;
    }
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
    using Options = std::initializer_list<std::pair<const char*, json::Value>>;
    const auto mount = [&](DeviceKind kind, Options options) {
        DeviceSpec device{kind};
        for (const auto& [key, value] : options) device.options.set(key, value);
        spec.devices.push_back(std::move(device));
    };
    if (topology.has_sciclops) {
        const devices::SciclopsConfig& c = config.sciclops;
        mount(DeviceKind::Sciclops, {{"towers", c.towers},
                                     {"plates_per_tower", c.plates_per_tower},
                                     {"get_plate_s", c.timing.get_plate.to_seconds()}});
    }
    if (topology.has_pf400) {
        mount(DeviceKind::Pf400,
              {{"transfer_s", config.pf400.timing.transfer.to_seconds()}});
    }
    const devices::Ot2Config& ot2 = config.ot2;
    mount(DeviceKind::Ot2,
          {{"protocol_overhead_s", ot2.timing.protocol_overhead.to_seconds()},
           {"per_well_s", ot2.timing.per_well.to_seconds()},
           {"dispense_cv", ot2.dispense_cv},
           {"dispense_sigma_ul", ot2.dispense_sigma_ul},
           {"reservoir_capacity_ml", ot2.reservoir_capacity.to_milliliters()},
           {"clog_prob", ot2.clog_prob},
           {"dye_drift_per_well", ot2.dye_drift_per_well}});
    if (topology.has_barty) {
        const devices::BartyConfig& c = config.barty;
        mount(DeviceKind::Barty,
              {{"fill_s", c.timing.fill.to_seconds()},
               {"drain_s", c.timing.drain.to_seconds()},
               {"refill_s", c.timing.refill.to_seconds()},
               {"prime_s", c.timing.prime.to_seconds()},
               {"bulk_capacity_ml", c.bulk_capacity.to_milliliters()}});
    }
    const devices::CameraConfig& camera = config.camera;
    mount(DeviceKind::Camera, {{"capture_s", camera.timing.capture.to_seconds()},
                               {"glitch_prob", camera.glitch_prob},
                               {"drift_per_frame", camera.drift_per_frame}});
    return spec;
}

}  // namespace sdl::core
