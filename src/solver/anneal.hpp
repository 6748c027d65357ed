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
#include "support/random.hpp"

namespace sdl::solver {

struct AnnealConfig {
    std::size_t dims = 4;
    double initial_temperature = 25.0;  ///< in objective units (RGB distance)
    double cooling = 0.95;              ///< temperature multiplier per generation
    double initial_step = 0.25;         ///< proposal half-width in ratio units
    std::uint64_t seed = 0xA22EA1;
};

class AnnealSolver final : public SolverBase {
public:
    explicit AnnealSolver(AnnealConfig config = {});

    [[nodiscard]] std::string name() const override { return "anneal"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;
    void tell(std::span<const Observation> observations) override;

    [[nodiscard]] double temperature() const noexcept { return temperature_; }

private:
    [[nodiscard]] std::vector<double> perturb(const std::vector<double>& base);

    AnnealConfig config_;
    support::Rng rng_;
    double temperature_;
    double step_;
    std::vector<double> state_;   ///< current accepted point
    double state_score_ = 1e300;
    bool has_state_ = false;
};

}  // namespace sdl::solver
