// The paper's "simple evolutionary solver" (§2.5), reproduced operator
// for operator:
//
//   "For the initial population, points are sampled from a uniform grid
//    of proper dimensions (corresponding to the number of mixing colors).
//    ... The most accurate element of the previous population is
//    propagated into the new generation. One third of the new population
//    is created by randomly selecting two elements of the previous
//    population and taking the average of them. One third of the
//    population is created by taking a random element of the previous
//    population and randomly shifting its ratios. The final third of the
//    population is created by randomly creating a new set of ratios."
//
// One documented adaptation: for batch size 1 a literal reading would
// re-propose the elite forever, so generations of size 1 rotate through
// the three variation operators instead (crossover, shift, random) —
// which produces exactly the gradual, plateau-prone improvement the
// paper's Figure 4 shows for B=1.
#pragma once

#include "solver/solver.hpp"

namespace sdl::solver {

class GeneticSolver final : public SolverBase {
public:
    explicit GeneticSolver(std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "genetic"; }
    [[nodiscard]] std::vector<std::vector<double>> ask(std::size_t n) override;

private:
    [[nodiscard]] std::vector<double> crossover();
    [[nodiscard]] std::vector<double> mutate();
    /// Parents pool: previous generation when it has >= 2 members,
    /// otherwise the full archive (keeps B=1 runs well-defined).
    [[nodiscard]] const std::vector<Observation>& parents() const;

    support::Rng rng_;
    std::uint64_t generation_ = 0;
};

}  // namespace sdl::solver
