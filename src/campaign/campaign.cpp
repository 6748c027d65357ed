#include "campaign/campaign.hpp"

#include <algorithm>
#include <map>

#include "core/config_io.hpp"
#include "core/scenario_gen.hpp"
#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"

namespace sdl::campaign {

CampaignSpec normalize(CampaignSpec spec) {
    if (spec.replicates < 1) {
        throw support::ConfigError("campaign replicates must be >= 1");
    }
    if (spec.axes.workcells.empty()) {
        spec.axes.workcells = {spec.base.workcell.scenario};
    }
    if (spec.axes.solvers.empty()) spec.axes.solvers = {spec.base.solver};
    if (spec.axes.batch_sizes.empty()) spec.axes.batch_sizes = {spec.base.batch_size};
    if (spec.axes.objectives.empty()) spec.axes.objectives = {spec.base.objective};
    if (spec.axes.targets.empty()) spec.axes.targets = {spec.base.target};
    return spec;
}

bool sweeps_workcells(const CampaignSpec& spec) {
    return !spec.axes.workcells.empty() &&
           !(spec.axes.workcells.size() == 1 &&
             spec.axes.workcells.front() == spec.base.workcell.scenario);
}

std::size_t cell_count(const CampaignSpec& spec) {
    const CampaignSpec n = normalize(spec);
    return n.axes.workcells.size() * n.axes.solvers.size() * n.axes.batch_sizes.size() *
           n.axes.objectives.size() * n.axes.targets.size() *
           static_cast<std::size_t>(n.replicates);
}

std::uint64_t cell_seed(const CampaignSpec& spec, std::size_t index, int replicate) {
    switch (spec.seed_mode) {
        case SeedMode::PerCell: return spec.base_seed + index;
        case SeedMode::PerReplicate:
            return spec.base_seed + static_cast<std::uint64_t>(replicate);
    }
    return spec.base_seed;
}

std::vector<std::uint64_t> generated_seeds(const std::vector<CampaignCell>& cells) {
    std::vector<std::uint64_t> seeds;
    for (const CampaignCell& cell : cells) {
        if (cell.generated_seed &&
            std::find(seeds.begin(), seeds.end(), *cell.generated_seed) == seeds.end()) {
            seeds.push_back(*cell.generated_seed);
        }
    }
    return seeds;
}

namespace {

std::string cell_experiment_id(const CampaignSpec& spec, const CampaignCell& cell,
                               bool sweeps_workcells) {
    std::string id = spec.name;
    // The scenario segment appears only in scenario-sweeping campaigns,
    // so single-workcell campaigns keep their PR-2-era ids.
    if (sweeps_workcells) id += "_" + cell.workcell;
    return id + "_" + cell.solver + "_B" + std::to_string(cell.batch_size) + "_" +
           core::objective_to_string(cell.objective) + "_t" +
           std::to_string(cell.target.r) + "-" + std::to_string(cell.target.g) + "-" +
           std::to_string(cell.target.b) + "_r" + std::to_string(cell.replicate);
}

}  // namespace

std::vector<CampaignCell> expand_grid(const CampaignSpec& raw) {
    // A swept workcells axis re-resolves every cell's hardware through
    // the scenario registry; otherwise the base config's devices stay
    // untouched (the base may carry in-code customizations no named
    // scenario describes).
    const bool sweeping = sweeps_workcells(raw);
    const CampaignSpec spec = normalize(raw);

    std::map<std::string, core::WorkcellSpec> scenarios;
    if (sweeping) {
        // Distinct axis entries must resolve to distinct scenario names:
        // the name feeds experiment ids, whose uniqueness downstream
        // tooling relies on.
        std::map<std::string, std::string> name_to_ref;
        for (const std::string& ref : spec.axes.workcells) {
            const auto [it, inserted] = scenarios.emplace(ref, core::WorkcellSpec{});
            if (!inserted) {
                throw support::ConfigError("workcells entry '" + ref +
                                           "' is listed twice");
            }
            it->second = core::resolve_scenario(ref);
            const auto [named, fresh] = name_to_ref.emplace(it->second.name, ref);
            if (!fresh) {
                throw support::ConfigError(
                    "workcells entries '" + named->second + "' and '" + ref +
                    "' both resolve to scenario name '" + it->second.name +
                    "', which would collide in experiment ids");
            }
        }
    }

    std::vector<CampaignCell> cells;
    cells.reserve(cell_count(spec));
    for (const std::string& workcell : spec.axes.workcells) {
        for (const std::string& solver : spec.axes.solvers) {
            for (const int batch_size : spec.axes.batch_sizes) {
                for (const core::Objective objective : spec.axes.objectives) {
                    for (const color::Rgb8 target : spec.axes.targets) {
                        for (int rep = 0; rep < spec.replicates; ++rep) {
                            CampaignCell cell;
                            cell.index = cells.size();
                            cell.solver = solver;
                            cell.batch_size = batch_size;
                            cell.objective = objective;
                            cell.target = target;
                            cell.replicate = rep;

                            cell.config = spec.base;
                            if (sweeping) {
                                const core::WorkcellSpec& scenario =
                                    scenarios.at(workcell);
                                cell.config = core::apply_workcell_spec(
                                    std::move(cell.config), scenario);
                                if (core::is_generated_ref(workcell)) {
                                    cell.generated_seed =
                                        core::parse_generated_ref(workcell);
                                }
                            }
                            cell.workcell = cell.config.workcell.scenario;
                            cell.config.solver = solver;
                            cell.config.batch_size = batch_size;
                            cell.config.objective = objective;
                            cell.config.target = target;
                            cell.config.seed = cell_seed(spec, cell.index, rep);
                            cell.config.experiment_id =
                                cell_experiment_id(spec, cell, sweeping);
                            cells.push_back(std::move(cell));
                        }
                    }
                }
            }
        }
    }
    return cells;
}

}  // namespace sdl::campaign
