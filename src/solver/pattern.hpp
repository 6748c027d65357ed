// Compass / pattern-search solver (derivative-free local search).
//
// Another classic "different search approach" (§4 future work): probe the
// 2·kDyes axis-aligned neighbours of the incumbent at the current step
// size; move to the best improving probe, otherwise halve the step. Its
// batch shape (a full compass of probes per generation) fits the
// workcell's batched mixing naturally — one generation is one plate
// batch.
#pragma once

#include "solver/solver.hpp"

namespace sdl::solver {

class PatternSearchSolver final : public SolverBase {
public:
    explicit PatternSearchSolver(std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "pattern"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;
    void tell(std::span<const Observation> observations) override;

    [[nodiscard]] double step() const noexcept { return step_; }

private:
    support::Rng rng_;
    double step_;
    std::vector<double> center_;
    double center_score_ = 1e300;
    bool has_center_ = false;
    bool probes_outstanding_ = false;
};

}  // namespace sdl::solver
