// Baseline solvers: random search, systematic grid scan, and an analytic
// oracle. The oracle exploits the fact that the color-matching problem
// "admits to an analytic solution" (§2.5) — it always proposes the exact
// recipe for the target, so its residual score measures the workcell's
// noise floor (pipetting + camera), isolating measurement error from
// optimizer error in ablation studies.
#pragma once

#include "color/mixing.hpp"
#include "solver/solver.hpp"

namespace sdl::solver {

class RandomSolver final : public SolverBase {
public:
    explicit RandomSolver(std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "random"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;

private:
    support::Rng rng_;
};

/// Scans a fixed lattice in index order; a deterministic exhaustive
/// baseline for small budgets.
class GridSolver final : public SolverBase {
public:
    [[nodiscard]] std::string name() const override { return "grid"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;

private:
    std::size_t cursor_ = 0;
};

class OracleSolver final : public SolverBase {
public:
    /// Requires the target to be inside the mixer's gamut.
    OracleSolver(const color::BeerLambertMixer& mixer, color::Rgb8 target,
                 std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "oracle"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;

private:
    std::vector<double> optimum_;
    support::Rng rng_;
};

}  // namespace sdl::solver
