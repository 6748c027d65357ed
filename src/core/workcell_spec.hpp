// WorkcellSpec: a declarative description of one simulated workcell.
//
// The paper's benchmark value comes from varying the *workcell*, not just
// the solver: device timings, transport topology, and fault rates are the
// knobs that make color matching a self-driving-lab benchmark. A
// WorkcellSpec captures those knobs as data — a device roster with timing
// overrides, a fault-injection profile, the deck's plate format — in the
// same YAML notation as experiment and campaign files:
//
//   workcell:                    # presence of this section + a `devices`
//     name: degraded             # list marks a workcell spec file
//     description: elevated fault rates on every instrument
//     timing_scale: 1.0          # optional; multiplies every duration
//     manual_handling_s: 20.0    # optional; time per hand-run action
//   plate:                       # optional; the plate format the deck is
//     rows: 8                    # stocked with (overrides the experiment)
//     cols: 12
//   devices:                     # the roster; omitted handling devices
//     - kind: sciclops           # (sciclops/pf400/barty) are run by hand;
//     - kind: pf400              # camera and ot2 are mandatory
//       transfer_s: 42.65
//     - kind: ot2
//       per_well_s: 35.0
//     - kind: barty
//     - kind: camera
//       glitch_prob: 0.02
//   faults:                      # optional; omitted = keep the
//     command_rejection_prob: 0.03           # experiment's fault profile
//     rejection_latency_s: 5.0
//     per_module: {ot2: 0.08}
//
// Unknown keys, unknown device kinds, a kind listed twice, and a `name:`
// other than the kind raise ConfigError so typos fail loudly.
// `apply_workcell_spec` resolves a spec against a ColorPickerConfig,
// after which WorkcellRuntime builds the described workcell;
// scenarios.hpp ships a pack of named specs.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment_config.hpp"
#include "support/json.hpp"
#include "wei/faults.hpp"

namespace sdl::core {

/// Instrument kinds a roster can mount (the five Figure-1 instruments).
enum class DeviceKind { Sciclops, Pf400, Ot2, Barty, Camera };

/// Kind <-> spec-file spelling ("sciclops" | "pf400" | "ot2" | "barty" |
/// "camera"). device_kind_from_string throws ConfigError on unknown kinds.
[[nodiscard]] DeviceKind device_kind_from_string(const std::string& name);
[[nodiscard]] const char* device_kind_to_string(DeviceKind kind);

/// One roster entry. Its instance name is the kind spelling: the
/// Figure-2 workflows address modules by kind name, so a spec file's
/// optional `name:` key must equal the kind. `options` holds the
/// kind-specific overrides exactly as written in the file (validated
/// keys only); fields not mentioned keep the paper-calibrated defaults.
/// Each kind's option keys, their rules and the config fields they set
/// are the one table in workcell_spec.cpp (docs/SCENARIOS.md lists it).
struct DeviceSpec {
    DeviceKind kind = DeviceKind::Ot2;
    support::json::Value options = support::json::Value::object();
};

struct WorkcellSpec {
    std::string name = "baseline";
    std::string description;
    /// Multiplies every device duration (and manual_handling): 0.25 models
    /// optimistic next-generation hardware, 2.0 a slow workcell.
    double timing_scale = 1.0;
    /// Duration of one hand-run action of an absent handling device.
    support::Duration manual_handling = support::Duration::seconds(20.0);
    /// Plate format the deck is stocked with; unset = keep the experiment's.
    std::optional<int> plate_rows;
    std::optional<int> plate_cols;
    std::vector<DeviceSpec> devices;
    /// Fault profile; unset = keep the experiment's own `faults:` section.
    std::optional<wei::FaultConfig> faults;
};

/// Structural validation: camera and ot2 present, each kind listed
/// once, options known and in range, probabilities in range. Called by the
/// parsers and by apply_workcell_spec; throws ConfigError.
void validate_workcell_spec(const WorkcellSpec& spec);

/// Parses a workcell spec document / file / already parsed document.
[[nodiscard]] WorkcellSpec workcell_spec_from_yaml(std::string_view text);
[[nodiscard]] WorkcellSpec workcell_spec_from_file(const std::string& path);
[[nodiscard]] WorkcellSpec workcell_spec_from_doc(const support::json::Value& doc);

/// Serializes back to YAML / document form (inverse of the parsers).
[[nodiscard]] std::string workcell_spec_to_yaml(const WorkcellSpec& spec);
[[nodiscard]] support::json::Value workcell_spec_to_doc(const WorkcellSpec& spec);

/// Resolves `spec` against an experiment config: fills in the topology
/// (scenario name, device presence, manual handling time), applies device
/// option overrides and the timing scale to the device configs, and
/// overrides the plate format / fault profile when the spec declares
/// them. Everything else (solver, seed, samples, ...) is left
/// untouched, so the same spec composes with any experiment.
[[nodiscard]] ColorPickerConfig apply_workcell_spec(ColorPickerConfig config,
                                                    const WorkcellSpec& spec);

/// The workcell `config` resolves to, as a spec (the inverse of
/// apply_workcell_spec): named after the topology's scenario, every option
/// of each mounted device at its resolved value (so timing_scale is 1),
/// the plate format and the fault profile. apply_workcell_spec of the
/// result reproduces `config`'s device, topology and fault fields.
[[nodiscard]] WorkcellSpec workcell_spec_of(const ColorPickerConfig& config);

}  // namespace sdl::core
