#include "solver/anneal.hpp"

#include <cmath>

#include "support/common.hpp"

namespace sdl::solver {

namespace {

constexpr double kMinStep = 0.02;  ///< floor of the cooled proposal half-width

}  // namespace

AnnealSolver::AnnealSolver(AnnealConfig config)
    : config_(config),
      rng_(config.seed),
      temperature_(config.initial_temperature),
      step_(config.initial_step) {
    support::check(config_.dims >= 1, "anneal solver needs at least one dye");
    support::check(config_.cooling > 0.0 && config_.cooling < 1.0,
                   "cooling factor must be in (0, 1)");
}

std::vector<double> AnnealSolver::perturb(const std::vector<double>& base) {
    std::vector<double> out(config_.dims);
    for (int attempt = 0; attempt < 16; ++attempt) {
        for (std::size_t d = 0; d < config_.dims; ++d) {
            out[d] = support::clamp(base[d] + rng_.uniform(-step_, step_), 0.0, 1.0);
        }
        if (is_valid_proposal(out, config_.dims)) return out;
    }
    // Base sits in a degenerate corner: restart uniformly.
    do {
        for (double& v : out) v = rng_.uniform();
    } while (!is_valid_proposal(out, config_.dims));
    return out;
}

std::vector<std::vector<double>> AnnealSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);
    if (!has_state_) {
        // Cold start: uniform random points.
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<double> p(config_.dims);
            do {
                for (double& v : p) v = rng_.uniform();
            } while (!is_valid_proposal(p, config_.dims));
            proposals.push_back(std::move(p));
        }
        return proposals;
    }
    for (std::size_t i = 0; i < n; ++i) proposals.push_back(perturb(state_));
    return proposals;
}

void AnnealSolver::tell(std::span<const Observation> observations) {
    SolverBase::tell(observations);
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
    temperature_ *= config_.cooling;
    step_ = std::max(kMinStep, step_ * config_.cooling);
}

}  // namespace sdl::solver
