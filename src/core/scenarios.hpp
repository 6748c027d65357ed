// ScenarioRegistry: the shipped pack of named workcell scenarios.
//
// The paper argues the color-matching benchmark is interesting because
// the *workcell* can vary underneath an unchanged application; this
// registry makes those variations one-word names. Four scenarios ship:
//
//   baseline   — the paper's Figure-2 RPL workcell, Table-1 timings
//   degraded   — elevated command-rejection and camera-glitch rates
//   fast_lane  — optimistic timings (every device 4x faster)
//   minimal    — camera + OT2 only; a human does the plate handling
//
// Reachable from campaign files (`grid: workcells: [...]`), experiment
// files (`workcell: scenario: ...`), and the CLI (`--scenario`,
// `--list-scenarios`). The same specs are shipped as YAML under
// examples/scenarios/ for reference and as seeds for custom scenarios
// (see docs/SCENARIOS.md).
#pragma once

#include <string>
#include <vector>

#include "core/workcell_spec.hpp"

namespace sdl::core {

/// The registry's scenario names, in presentation order.
[[nodiscard]] const std::vector<std::string>& scenario_names();

[[nodiscard]] bool is_scenario_name(const std::string& name);

/// Looks a scenario up by name; throws ConfigError listing the valid
/// names on a miss.
[[nodiscard]] WorkcellSpec scenario_by_name(const std::string& name);

/// True when `ref` names a workcell spec file (contains '/' or ends in
/// .yaml/.yml) rather than a registry scenario.
[[nodiscard]] bool scenario_ref_is_path(const std::string& ref);

/// If `ref` is a *relative* spec-file path, resolves it against
/// `base_dir` (the directory of the campaign/experiment file that wrote
/// it), so file references work no matter where the process runs from.
/// Registry names and absolute paths pass through unchanged.
[[nodiscard]] std::string rebase_scenario_ref(std::string ref,
                                              const std::string& base_dir);

/// Resolves a scenario reference: a registry name, or — when `ref` looks
/// like a path (see scenario_ref_is_path) — a workcell spec file. This
/// is what the CLI's --scenario flag and the campaign `workcells:` axis
/// accept.
[[nodiscard]] WorkcellSpec resolve_scenario(const std::string& ref);

}  // namespace sdl::core
