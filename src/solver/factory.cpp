#include "solver/factory.hpp"

#include "solver/anneal.hpp"
#include "solver/baselines.hpp"
#include "solver/bayes.hpp"
#include "solver/genetic.hpp"
#include "solver/pattern.hpp"
#include "support/common.hpp"

namespace sdl::solver {

std::unique_ptr<Solver> make_solver(const std::string& name, const SolverOptions& options) {
    // Every solver proposes one ratio per dye; a caller asking for another
    // shape fails loudly instead of being ignored.
    if (options.dims != color::kDyes) {
        throw support::ConfigError("solver dims " + std::to_string(options.dims) +
                                   " is not selectable; the workcell mixes " +
                                   std::to_string(color::kDyes) + " dyes");
    }
    if (name == "genetic") return std::make_unique<GeneticSolver>(options.seed);
    if (name == "bayesian") return std::make_unique<BayesSolver>(options.seed);
    if (name == "anneal") return std::make_unique<AnnealSolver>(options.seed);
    if (name == "pattern") return std::make_unique<PatternSearchSolver>(options.seed);
    if (name == "random") return std::make_unique<RandomSolver>(options.seed);
    if (name == "grid") return std::make_unique<GridSolver>();
    if (name == "oracle") {
        if (options.mixer == nullptr) {
            throw support::ConfigError("oracle solver needs a mixer in SolverOptions");
        }
        return std::make_unique<OracleSolver>(*options.mixer, options.target, options.seed);
    }
    throw support::ConfigError("unknown solver '" + name + "'");
}

std::vector<std::string> solver_names() {
    return {"genetic", "bayesian", "anneal", "pattern", "random", "grid", "oracle"};
}

}  // namespace sdl::solver
