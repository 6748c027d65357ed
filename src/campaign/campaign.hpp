// Campaign grids: cartesian products of experiment knobs.
//
// The paper's core claim is that the color-matching benchmark lets you
// "run multiple optimization algorithms without changes to other elements
// of the system". A CampaignSpec turns that into a first-class object: a
// base experiment config plus axes (solver x batch size x objective x
// target) and seed replicates, expanded into a deterministic list of
// fully resolved per-cell ColorPickerConfigs. run_cells (runner.hpp)
// executes the cells on the thread pool; report.hpp aggregates and
// serializes the results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment_config.hpp"

namespace sdl::campaign {

/// How per-cell seeds derive from the campaign base seed.
enum class SeedMode {
    /// seed = base_seed + cell index: every cell draws its own noise
    /// streams (a sweep of independent experiments, as in Figure 4).
    PerCell,
    /// seed = base_seed + replicate: cells of the same replicate share a
    /// seed, pairing the comparison across solvers/batch sizes.
    PerReplicate,
};

/// The swept axes. An empty axis is invalid; axes you don't sweep keep
/// their single base-config value (campaign_io fills that in when the
/// grid section omits an axis).
struct CampaignAxes {
    /// Workcell scenarios: registry names or spec file paths (see
    /// core/scenarios.hpp). When the axis sweeps anything beyond the
    /// base config's own scenario, each cell's config gets its scenario
    /// applied via apply_workcell_spec before the other axes resolve; an
    /// empty axis (or one equal to just the base scenario) keeps the
    /// base's devices as-is.
    std::vector<std::string> workcells;
    std::vector<std::string> solvers;
    std::vector<int> batch_sizes;
    std::vector<core::Objective> objectives;
    std::vector<color::Rgb8> targets;
};

struct CampaignSpec {
    std::string name = "campaign";
    /// Per-cell base configuration; solver, batch_size, objective,
    /// target, seed and experiment_id are overridden per cell.
    core::ColorPickerConfig base;
    CampaignAxes axes;
    int replicates = 1;
    std::uint64_t base_seed = 1;
    SeedMode seed_mode = SeedMode::PerCell;
};

/// One expanded grid point with its fully resolved experiment config.
struct CampaignCell {
    std::size_t index = 0;  ///< position in expansion order
    std::string workcell;   ///< resolved scenario name (spec.name, not the raw ref)
    std::string solver;
    int batch_size = 1;
    core::Objective objective = core::Objective::RgbEuclidean;
    color::Rgb8 target;
    int replicate = 0;      ///< 0-based
    /// Set when the cell's workcell came from a "generated:seed=K" axis
    /// entry; reports score and record the scenario's difficulty for
    /// these cells. Reconstituted on resume by re-expanding the grid.
    std::optional<std::uint64_t> generated_seed;
    core::ColorPickerConfig config;
};

/// Returns a spec whose empty axes are filled from the base config, so
/// expand_grid always sees non-empty axes. Throws ConfigError when
/// replicates < 1.
[[nodiscard]] CampaignSpec normalize(CampaignSpec spec);

/// True when the workcells axis actually varies the hardware: anything
/// beyond (empty or just the base config's own scenario). expand_grid
/// re-resolves cell hardware exactly when this holds, and
/// campaign_to_yaml serializes the axis exactly when this holds, so
/// round-tripped specs expand identically. Normalize()-stable.
[[nodiscard]] bool sweeps_workcells(const CampaignSpec& spec);

/// Number of cells the spec expands to (after normalize()).
[[nodiscard]] std::size_t cell_count(const CampaignSpec& spec);

/// The deterministic seed of cell `index` / replicate `replicate`.
[[nodiscard]] std::uint64_t cell_seed(const CampaignSpec& spec, std::size_t index,
                                      int replicate);

/// The distinct generated seeds of `cells`, in first-seen order: the
/// scenarios whose difficulty probes a report of these cells runs.
[[nodiscard]] std::vector<std::uint64_t> generated_seeds(
    const std::vector<CampaignCell>& cells);

/// Expands the cartesian grid in a fixed order: workcells (outermost) x
/// solvers x batch_sizes x objectives x targets x replicates (innermost).
/// The same spec always produces the same cells, seeds and experiment
/// ids. Scenario resolution (registry lookup / spec file load) happens
/// once per distinct axis entry, then applies to every matching cell.
[[nodiscard]] std::vector<CampaignCell> expand_grid(const CampaignSpec& spec);

}  // namespace sdl::campaign
