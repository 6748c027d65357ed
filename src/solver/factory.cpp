#include "solver/factory.hpp"

#include "solver/anneal.hpp"
#include "solver/baselines.hpp"
#include "solver/bayes.hpp"
#include "solver/genetic.hpp"
#include "solver/pattern.hpp"
#include "support/common.hpp"

namespace sdl::solver {

std::unique_ptr<Solver> make_solver(const std::string& name, const SolverOptions& options) {
    if (name == "genetic") {
        GeneticConfig config;
        config.dims = options.dims;
        config.seed = options.seed;
        return std::make_unique<GeneticSolver>(config);
    }
    if (name == "bayesian") {
        BayesConfig config;
        config.dims = options.dims;
        config.seed = options.seed;
        return std::make_unique<BayesSolver>(config);
    }
    if (name == "anneal") {
        AnnealConfig config;
        config.dims = options.dims;
        config.seed = options.seed;
        return std::make_unique<AnnealSolver>(config);
    }
    if (name == "pattern") {
        PatternConfig config;
        config.dims = options.dims;
        config.seed = options.seed;
        return std::make_unique<PatternSearchSolver>(config);
    }
    if (name == "random") {
        return std::make_unique<RandomSolver>(options.dims, options.seed);
    }
    if (name == "grid") {
        return std::make_unique<GridSolver>(options.dims);
    }
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
