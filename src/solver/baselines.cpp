#include "solver/baselines.hpp"

#include "support/common.hpp"

namespace sdl::solver {

namespace {

constexpr std::size_t kGridLevels = 4;  ///< lattice levels per dye

}  // namespace

RandomSolver::RandomSolver(std::uint64_t seed) : rng_(seed) {}

std::vector<std::vector<double>> RandomSolver::ask(std::size_t n) {
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) proposals.push_back(draw_uniform(rng_));
    return proposals;
}

std::vector<std::vector<double>> GridSolver::ask(std::size_t n) {
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);
    while (proposals.size() < n) {
        std::vector<double> point = lattice_point(cursor_ % lattice_size(kGridLevels),
                                                  kGridLevels);
        ++cursor_;
        if (is_valid_proposal(point)) proposals.push_back(std::move(point));
    }
    return proposals;
}

OracleSolver::OracleSolver(const color::BeerLambertMixer& mixer, color::Rgb8 target,
                           std::uint64_t seed)
    : rng_(seed) {
    const auto ratios = mixer.invert_target(target);
    if (!ratios.has_value()) {
        throw support::ConfigError("oracle solver: target " + target.str() +
                                   " is outside the dye gamut");
    }
    optimum_ = *ratios;
}

std::vector<std::vector<double>> OracleSolver::ask(std::size_t n) {
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // The first proposal each batch is the exact optimum; the rest add
        // a whisper of jitter so a batch occupies distinct wells.
        std::vector<double> ratios = optimum_;
        if (i > 0) {
            for (double& r : ratios) {
                r = support::clamp(r + rng_.normal(0.0, 0.005), 0.0, 1.0);
            }
        }
        proposals.push_back(std::move(ratios));
    }
    return proposals;
}

}  // namespace sdl::solver
