#include "solver/pattern.hpp"

#include <algorithm>

#include "support/common.hpp"

namespace sdl::solver {

namespace {

constexpr double kInitialStep = 0.25;  ///< compass step in ratio units
constexpr double kShrink = 0.5;        ///< step multiplier after a failed compass
constexpr double kMinStep = 0.01;      ///< floor of the shrinking compass step

}  // namespace

PatternSearchSolver::PatternSearchSolver(std::uint64_t seed)
    : rng_(seed), step_(kInitialStep) {}

std::vector<std::vector<double>> PatternSearchSolver::ask(std::size_t n) {
    support::check(n >= 1, "ask() needs n >= 1");
    std::vector<std::vector<double>> proposals;
    proposals.reserve(n);

    if (!has_center_) {
        // Cold start: random points; the best becomes the first center.
        for (std::size_t i = 0; i < n; ++i) proposals.push_back(draw_uniform(rng_));
        return proposals;
    }

    // Compass probes around the center, in a seeded-random axis order so
    // truncated batches (n < 2*kDyes) still cover all axes over time.
    const auto order = rng_.permutation(2 * color::kDyes);
    for (const std::size_t probe : order) {
        if (proposals.size() == n) break;
        const std::size_t axis = probe / 2;
        const double direction = (probe % 2 == 0) ? 1.0 : -1.0;
        std::vector<double> p = center_;
        p[axis] = support::clamp(p[axis] + direction * step_, 0.0, 1.0);
        if (!is_valid_proposal(p)) continue;
        proposals.push_back(std::move(p));
    }
    // Batch larger than the compass: pad with random restarts (global
    // exploration keeps the search from stalling in a local basin).
    while (proposals.size() < n) proposals.push_back(draw_uniform(rng_));
    probes_outstanding_ = true;
    return proposals;
}

void PatternSearchSolver::tell(std::span<const Observation> observations) {
    SolverBase::tell(observations);
    bool improved = false;
    for (const Observation& obs : observations) {
        if (obs.score < center_score_) {
            center_ = obs.ratios;
            center_score_ = obs.score;
            improved = true;
        }
    }
    if (!has_center_) {
        has_center_ = !archive().empty();
        return;
    }
    if (probes_outstanding_ && !improved) {
        step_ = std::max(kMinStep, step_ * kShrink);
    }
    probes_outstanding_ = false;
}

}  // namespace sdl::solver
