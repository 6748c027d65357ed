#include "solver/solver.hpp"

namespace sdl::solver {

void Solver::tell(std::span<const Observation> observations) {
    previous_generation_.assign(observations.begin(), observations.end());
    for (const Observation& obs : observations) {
        archive_.push_back(obs);
        if (!best_.has_value() || obs.score < best_->score) best_ = obs;
    }
}

std::optional<Observation> Solver::best() const { return best_; }

bool is_valid_proposal(std::span<const double> ratios) {
    if (ratios.size() != color::kDyes) return false;
    double sum = 0.0;
    for (const double r : ratios) {
        if (r < 0.0 || r > 1.0) return false;
        sum += r;
    }
    return sum > 1e-6;
}

void draw_uniform(support::Rng& rng, std::span<double> out) {
    do {
        for (double& v : out) v = rng.uniform();
    } while (!is_valid_proposal(out));
}

std::vector<double> draw_uniform(support::Rng& rng) {
    std::vector<double> ratios(color::kDyes);
    draw_uniform(rng, ratios);
    return ratios;
}

std::vector<double> lattice_point(std::size_t index, std::size_t levels) {
    std::vector<double> point(color::kDyes);
    for (double& ratio : point) {
        ratio = static_cast<double>(index % levels) / static_cast<double>(levels - 1);
        index /= levels;
    }
    return point;
}

}  // namespace sdl::solver
