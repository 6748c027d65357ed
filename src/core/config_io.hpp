// Experiment configuration I/O: declare a whole color-picker experiment
// in YAML (the same notation as workcells and workflows) and load it into
// a ColorPickerConfig — the entry point for the sdlbench_run CLI and the
// base-config section of campaign files (campaign/campaign_io).
#pragma once

#include <string>

#include "core/experiment_config.hpp"
#include "support/json.hpp"

namespace sdl::core {

/// Parses an experiment document:
///
///   experiment:
///     target: [120, 120, 120]
///     total_samples: 128
///     batch_size: 1
///     solver: genetic            # any solver::solver_names() entry
///     objective: rgb             # rgb | de76 | de2000
///     seed: 7
///     stop_threshold: 0.0
///     id: my_experiment          # optional
///     date: 2023-08-16           # optional
///   workcell:
///     scenario: degraded         # applies a named scenario (scenarios.hpp)
///                                # or a workcell spec file path first ...
///     ot2_count: 2               # ... then explicit topology overrides
///     sciclops: true             # presence flags; false = manual stand-in
///     pf400: true
///     barty: true
///     manual_handling_s: 20.0
///   plate:
///     rows: 8
///     cols: 12
///   well_volume_ul: 80.0
///   faults:
///     command_rejection_prob: 0.0
///   retry:
///     max_attempts: 5
///     human_rescue: true
///
/// The `workcell:` section is resolved before the other sections, so an
/// explicit `plate:` or `faults:` section overrides what the scenario
/// set. Unknown keys raise ConfigError so typos fail loudly.
[[nodiscard]] ColorPickerConfig config_from_yaml(std::string_view text);

/// Loads a config from a file path.
[[nodiscard]] ColorPickerConfig config_from_file(const std::string& path);

/// Loads a config from an already parsed experiment document (the
/// json::Value the YAML parser produces). Campaign files embed the same
/// document as their per-cell base configuration.
[[nodiscard]] ColorPickerConfig config_from_doc(const support::json::Value& doc);

/// Serializes the experiment-level knobs back to YAML (inverse of
/// config_from_yaml for the documented subset).
[[nodiscard]] std::string config_to_yaml(const ColorPickerConfig& config);

/// Document form of config_to_yaml (config_to_yaml = yaml::dump of this).
[[nodiscard]] support::json::Value config_to_doc(const ColorPickerConfig& config);

/// Objective <-> config-file spelling ("rgb" | "de76" | "de2000").
/// objective_from_string throws ConfigError on unknown names.
[[nodiscard]] Objective objective_from_string(const std::string& name);
[[nodiscard]] const char* objective_to_string(Objective objective);

/// Parses a [r, g, b] triple (channels 0..255); `where` names the field
/// in error messages.
[[nodiscard]] color::Rgb8 rgb_from_doc(const support::json::Value& value,
                                       const std::string& where);

/// Throws ConfigError when `node` (an object) has a key outside `known`;
/// `where` names the section in the message. The schema validators here
/// and in campaign/campaign_io share it so typos fail loudly everywhere.
void reject_unknown_keys(const support::json::Value& node,
                         std::initializer_list<const char*> known,
                         const std::string& where);

}  // namespace sdl::core
