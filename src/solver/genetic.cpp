#include "solver/genetic.hpp"

#include <cmath>

#include "support/common.hpp"

namespace sdl::solver {

namespace {

constexpr double kMutationScale = 0.15;  ///< uniform ratio-shift half-width

}  // namespace

GeneticSolver::GeneticSolver(GeneticConfig config) : config_(config), rng_(config.seed) {
    support::check(config_.dims >= 1, "genetic solver needs at least one dye");
}

const std::vector<Observation>& GeneticSolver::parents() const {
    return previous_generation().size() >= 2 ? previous_generation() : archive();
}

std::vector<double> GeneticSolver::random_ratios() {
    std::vector<double> ratios(config_.dims);
    do {
        for (double& r : ratios) r = rng_.uniform();
    } while (!is_valid_proposal(ratios, config_.dims));
    return ratios;
}

std::vector<double> GeneticSolver::crossover() {
    const auto& pool = parents();
    if (pool.size() < 2) return random_ratios();
    const std::size_t i = rng_.uniform_int(pool.size());
    std::size_t j = rng_.uniform_int(pool.size());
    if (j == i) j = (j + 1) % pool.size();
    const std::vector<double>& a = pool[i].ratios;
    const std::vector<double>& b = pool[j].ratios;
    std::vector<double> child(config_.dims);
    for (std::size_t d = 0; d < config_.dims; ++d) child[d] = 0.5 * (a[d] + b[d]);
    return child;
}

std::vector<double> GeneticSolver::mutate() {
    const auto& pool = parents();
    if (pool.empty()) return random_ratios();
    const std::vector<double>& base = pool[rng_.uniform_int(pool.size())].ratios;
    std::vector<double> child(config_.dims);
    for (std::size_t d = 0; d < config_.dims; ++d) {
        const double shifted = base[d] + rng_.uniform(-kMutationScale, kMutationScale);
        child[d] = support::clamp(shifted, 0.0, 1.0);
    }
    if (!is_valid_proposal(child, config_.dims)) return random_ratios();
    return child;
}

std::vector<std::vector<double>> GeneticSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);

    if (archive().empty()) {
        // Initial population from a uniform grid: enumerate lattice points
        // of a g^dims grid in seeded-shuffled order, skipping degenerate
        // (all-zero) corners.
        int levels = config_.grid_levels;
        if (levels < 2) {
            levels = 2;
            while (std::pow(levels, static_cast<double>(config_.dims)) <
                   static_cast<double>(n) + 1.0) {
                ++levels;
            }
        }
        const auto total = static_cast<std::size_t>(
            std::llround(std::pow(levels, static_cast<double>(config_.dims))));
        const std::vector<std::size_t> order = rng_.permutation(total);
        for (const std::size_t index : order) {
            std::size_t rest = index;
            std::vector<double> point(config_.dims);
            for (std::size_t d = 0; d < config_.dims; ++d) {
                point[d] = static_cast<double>(rest % static_cast<std::size_t>(levels)) /
                           static_cast<double>(levels - 1);
                rest /= static_cast<std::size_t>(levels);
            }
            if (!is_valid_proposal(point, config_.dims)) continue;
            proposals.push_back(std::move(point));
            if (proposals.size() == n) break;
        }
        // Grid smaller than the batch: top up with uniform randoms.
        while (proposals.size() < n) proposals.push_back(random_ratios());
        ++generation_;
        return proposals;
    }

    // Elite propagation (only meaningful when the generation has room for
    // variation alongside it).
    if (n >= 2) {
        proposals.push_back(best()->ratios);
    }

    // Fill the remainder in thirds: crossover / ratio-shift / random.
    // Round-robin assignment approximates exact thirds for any batch size;
    // the starting operator rotates across generations so tiny populations
    // (B=1, B=2) still exercise all three operators over time instead of
    // collapsing onto repeated crossovers.
    std::size_t op_index = static_cast<std::size_t>(generation_ % 3);
    while (proposals.size() < n) {
        switch (op_index % 3) {
            case 0: proposals.push_back(crossover()); break;
            case 1: proposals.push_back(mutate()); break;
            default: proposals.push_back(random_ratios()); break;
        }
        ++op_index;
    }
    ++generation_;
    return proposals;
}

}  // namespace sdl::solver
