// Simulated-annealing solver.
//
// One of the "different search approaches" the paper's future work calls
// for (§4, integration with Baird & Sparks' closed-loop spectroscopy
// optimizers). A random-walk proposal around the current state with a
// geometric temperature schedule; worse samples are accepted with the
// Metropolis probability, which matches the lab's noisy objective well —
// a slightly worse *measurement* is often the same mixture.
#pragma once

#include "solver/solver.hpp"

namespace sdl::solver {

class AnnealSolver final : public SolverBase {
public:
    explicit AnnealSolver(std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "anneal"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;
    void tell(std::span<const Observation> observations) override;

    [[nodiscard]] double temperature() const noexcept { return temperature_; }

private:
    [[nodiscard]] std::vector<double> perturb(const std::vector<double>& base);

    support::Rng rng_;
    double temperature_;
    double step_;
    std::vector<double> state_;   ///< current accepted point
    double state_score_ = 1e300;
    bool has_state_ = false;
};

}  // namespace sdl::solver
