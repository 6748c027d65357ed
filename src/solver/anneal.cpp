#include "solver/anneal.hpp"

#include <cmath>

#include "support/common.hpp"

namespace sdl::solver {

namespace {

constexpr double kInitialTemperature = 25.0;  ///< in objective units (RGB distance)
constexpr double kCooling = 0.95;      ///< temperature and step factor per generation
constexpr double kInitialStep = 0.25;  ///< proposal half-width in ratio units
constexpr double kMinStep = 0.02;      ///< floor of the cooled proposal half-width

}  // namespace

AnnealSolver::AnnealSolver(std::uint64_t seed)
    : rng_(seed), temperature_(kInitialTemperature), step_(kInitialStep) {}

std::vector<double> AnnealSolver::perturb(const std::vector<double>& base) {
    std::vector<double> out(color::kDyes);
    for (int attempt = 0; attempt < 16; ++attempt) {
        for (std::size_t d = 0; d < color::kDyes; ++d) {
            out[d] = support::clamp(base[d] + rng_.uniform(-step_, step_), 0.0, 1.0);
        }
        if (is_valid_proposal(out)) return out;
    }
    // Base sits in a degenerate corner: restart uniformly.
    draw_uniform(rng_, out);
    return out;
}

std::vector<std::vector<double>> AnnealSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);
    if (!has_state_) {
        // Cold start: uniform random points.
        for (std::size_t i = 0; i < n; ++i) proposals.push_back(draw_uniform(rng_));
        return proposals;
    }
    for (std::size_t i = 0; i < n; ++i) proposals.push_back(perturb(state_));
    return proposals;
}

void AnnealSolver::tell(std::span<const Observation> observations) {
    Solver::tell(observations);
    for (const Observation& obs : observations) {
        if (!has_state_) {
            state_ = obs.ratios;
            state_score_ = obs.score;
            has_state_ = true;
            continue;
        }
        const double delta = obs.score - state_score_;
        if (delta <= 0.0 ||
            (temperature_ > 1e-9 && rng_.uniform() < std::exp(-delta / temperature_))) {
            state_ = obs.ratios;
            state_score_ = obs.score;
        }
    }
    temperature_ *= kCooling;
    step_ = std::max(kMinStep, step_ * kCooling);
}

}  // namespace sdl::solver
