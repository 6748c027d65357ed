// Seeded procedural scenario generation: the scenario *space*.
//
// PR 3's registry ships five hand-written workcells — a pack, not a
// space. The paper's framing (the workcell as the benchmark) wants an
// unbounded, sweepable family: this module deterministically draws a
// full WorkcellSpec from distributions over the roster (device presence,
// OT2 fan-out), per-kind timing jitter, the fault profile (command
// rejections, camera glitches, and the clogged-tip → re-prime fault
// chain), plate format (96/384/1536), and slow drift-over-campaign
// nuisances (dye aging in the OT2, ring-light warm-up in the camera).
//
// Generated scenarios are addressed by reference, anywhere a scenario
// name or spec path is accepted:
//
//   generated:seed=K        one scenario (spec name "gen_K")
//   generated:seed=K..M     campaign `grid: workcells:` axis only —
//                           expands to the inclusive seed range
//
// The same seed always yields the same spec, and specs survive a YAML
// round trip bitwise, so `workcell.yaml` written next to a run's results
// reproduces it exactly. A scenario's *difficulty* is scored as the
// regret of the anneal baseline solver under a small fixed probe budget
// on that workcell (0 = probe matched the target exactly); campaign
// reports record it per generated cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/workcell_spec.hpp"

namespace sdl::core {

/// Prefix shared by every generated scenario reference.
inline constexpr std::string_view kGeneratedRefPrefix = "generated:";

/// True when `ref` is a generated scenario reference (starts with
/// "generated:"). Says nothing about well-formedness.
[[nodiscard]] bool is_generated_ref(const std::string& ref);

/// Parses a single-seed reference "generated:seed=K" -> K. Throws
/// ConfigError naming the offending token on malformed refs, including
/// range refs ("generated:seed=K..M"), which are only meaningful on a
/// campaign's workcells axis.
[[nodiscard]] std::uint64_t parse_generated_ref(const std::string& ref);

/// Campaign-axis expansion: "generated:seed=K..M" -> the M-K+1 single
/// refs of the inclusive range. A single generated ref is validated and
/// returned as-is; a non-generated ref passes through untouched. Throws
/// ConfigError (naming the token) on malformed refs, empty ranges
/// (K > M), and ranges wider than 4096 seeds.
[[nodiscard]] std::vector<std::string> expand_generated_refs(const std::string& ref);

/// Deterministically draws the workcell spec for one seed. The result is
/// named "gen_<seed>", passes validate_workcell_spec, and round-trips
/// through workcell_spec_to_yaml / workcell_spec_from_yaml bitwise.
[[nodiscard]] WorkcellSpec generate_scenario(std::uint64_t seed);

/// The difficulty probe's run on scenario `seed`: the "anneal" baseline
/// solver under a fixed 16-sample, B=8 budget and a fixed probe seed, on
/// generate_scenario(seed). Schedulers price the probe from this config
/// (campaign/cost_model.hpp) and generated_difficulty runs it.
[[nodiscard]] ColorPickerConfig difficulty_probe_config(std::uint64_t seed);

/// Difficulty score of a generated scenario: the best objective score
/// (RGB-euclidean regret; exact match = 0) the difficulty_probe_config
/// run reaches. A workcell so hostile the probe cannot finish at all
/// scores kUnrunnableDifficulty. Deterministic per seed; memoized per
/// process, so a campaign scheduler can probe ahead of the report (the
/// in-process runner's pool, the fleet coordinator's probe thread) and
/// reports regenerated many times mid-run probe each seed once.
[[nodiscard]] double generated_difficulty(std::uint64_t seed);

/// Sentinel difficulty for scenarios where the probe run itself fails.
inline constexpr double kUnrunnableDifficulty = 999.0;

}  // namespace sdl::core
