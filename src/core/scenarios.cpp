#include "core/scenarios.hpp"

#include <filesystem>

#include "core/scenario_gen.hpp"
#include "support/common.hpp"

namespace sdl::core {

namespace {

DeviceSpec device(DeviceKind kind) {
    DeviceSpec spec;
    spec.kind = kind;
    return spec;
}

std::vector<DeviceSpec> full_roster() {
    return {device(DeviceKind::Sciclops), device(DeviceKind::Pf400),
            device(DeviceKind::Ot2), device(DeviceKind::Barty),
            device(DeviceKind::Camera)};
}

WorkcellSpec make_baseline() {
    WorkcellSpec spec;
    spec.name = "baseline";
    spec.description =
        "the paper's Figure-2 RPL workcell: sciclops, pf400, ot2, barty, camera "
        "with Table-1-calibrated timings";
    spec.devices = full_roster();
    return spec;
}

WorkcellSpec make_degraded() {
    WorkcellSpec spec;
    spec.name = "degraded";
    spec.description =
        "a flaky workcell: 3% command rejections everywhere, 8% on the ot2, 5% "
        "unusable camera frames — exercises the retry/rescue control plane";
    spec.devices = full_roster();
    for (DeviceSpec& d : spec.devices) {
        if (d.kind == DeviceKind::Camera) d.options.set("glitch_prob", 0.05);
    }
    wei::FaultConfig faults;
    faults.command_rejection_prob = 0.03;
    faults.per_module["ot2"] = 0.08;
    spec.faults = std::move(faults);
    return spec;
}

WorkcellSpec make_fast_lane() {
    WorkcellSpec spec;
    spec.name = "fast_lane";
    spec.description =
        "optimistic next-generation hardware: every device duration scaled to "
        "a quarter of the Table-1 calibration";
    spec.timing_scale = 0.25;
    spec.devices = full_roster();
    return spec;
}

WorkcellSpec make_minimal() {
    WorkcellSpec spec;
    spec.name = "minimal";
    spec.description =
        "bench-top workcell: camera + OT2 only; a human stands in for plate "
        "staging, transfer and reservoir refills (20 s per action, not counted "
        "toward CCWH)";
    spec.devices = {device(DeviceKind::Ot2), device(DeviceKind::Camera)};
    spec.manual_handling = support::Duration::seconds(20.0);
    return spec;
}

}  // namespace

const std::vector<std::string>& scenario_names() {
    static const std::vector<std::string> names{"baseline", "degraded", "fast_lane",
                                               "minimal"};
    return names;
}

bool is_scenario_name(const std::string& name) {
    for (const std::string& n : scenario_names()) {
        if (n == name) return true;
    }
    return false;
}

WorkcellSpec scenario_by_name(const std::string& name) {
    if (name == "baseline") return make_baseline();
    if (name == "degraded") return make_degraded();
    if (name == "fast_lane") return make_fast_lane();
    if (name == "minimal") return make_minimal();
    std::string known;
    for (const std::string& n : scenario_names()) {
        if (!known.empty()) known += " | ";
        known += n;
    }
    throw support::ConfigError("unknown workcell scenario '" + name + "' (expected " +
                               known + ", a generated:seed=<K> reference, or a path "
                               "to a workcell spec file)");
}

bool scenario_ref_is_path(const std::string& ref) {
    return ref.find('/') != std::string::npos || ref.ends_with(".yaml") ||
           ref.ends_with(".yml");
}

std::string rebase_scenario_ref(std::string ref, const std::string& base_dir) {
    if (!scenario_ref_is_path(ref) || base_dir.empty()) return ref;
    const std::filesystem::path path(ref);
    if (path.is_absolute()) return ref;
    return (std::filesystem::path(base_dir) / path).lexically_normal().string();
}

WorkcellSpec resolve_scenario(const std::string& ref) {
    // "generated:..." first: the prefix can never be a registry name, and
    // treating it as one would bury the ref grammar's error messages.
    if (is_generated_ref(ref)) return generate_scenario(parse_generated_ref(ref));
    if (scenario_ref_is_path(ref)) return workcell_spec_from_file(ref);
    return scenario_by_name(ref);
}

}  // namespace sdl::core
