#include "solver/genetic.hpp"

#include "support/common.hpp"

namespace sdl::solver {

namespace {

constexpr double kMutationScale = 0.15;  ///< uniform ratio-shift half-width
/// Levels per dye of the initial population's uniform grid.
constexpr std::size_t kGridLevels = 5;

}  // namespace

GeneticSolver::GeneticSolver(std::uint64_t seed) : rng_(seed) {}

const std::vector<Observation>& GeneticSolver::parents() const {
    return previous_generation().size() >= 2 ? previous_generation() : archive();
}

std::vector<double> GeneticSolver::crossover() {
    const auto& pool = parents();
    if (pool.size() < 2) return draw_uniform(rng_);
    const std::size_t i = rng_.uniform_int(pool.size());
    std::size_t j = rng_.uniform_int(pool.size());
    if (j == i) j = (j + 1) % pool.size();
    const std::vector<double>& a = pool[i].ratios;
    const std::vector<double>& b = pool[j].ratios;
    std::vector<double> child(color::kDyes);
    for (std::size_t d = 0; d < color::kDyes; ++d) child[d] = 0.5 * (a[d] + b[d]);
    return child;
}

std::vector<double> GeneticSolver::mutate() {
    const auto& pool = parents();
    if (pool.empty()) return draw_uniform(rng_);
    const std::vector<double>& base = pool[rng_.uniform_int(pool.size())].ratios;
    std::vector<double> child(color::kDyes);
    for (std::size_t d = 0; d < color::kDyes; ++d) {
        const double shifted = base[d] + rng_.uniform(-kMutationScale, kMutationScale);
        child[d] = support::clamp(shifted, 0.0, 1.0);
    }
    if (!is_valid_proposal(child)) return draw_uniform(rng_);
    return child;
}

std::vector<std::vector<double>> GeneticSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);

    if (archive().empty()) {
        // Initial population from a uniform grid: enumerate lattice points
        // of a kGridLevels^kDyes grid in seeded-shuffled order, skipping the
        // degenerate (all-zero) corner.
        for (const std::size_t index : rng_.permutation(lattice_size(kGridLevels))) {
            std::vector<double> point = lattice_point(index, kGridLevels);
            if (!is_valid_proposal(point)) continue;
            proposals.push_back(std::move(point));
            if (proposals.size() == n) break;
        }
        // Grid smaller than the batch: top up with uniform randoms.
        while (proposals.size() < n) proposals.push_back(draw_uniform(rng_));
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
            default: proposals.push_back(draw_uniform(rng_)); break;
        }
        ++op_index;
    }
    ++generation_;
    return proposals;
}

}  // namespace sdl::solver
