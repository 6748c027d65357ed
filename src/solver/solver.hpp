// Color-picking solver interface (§2.5).
//
// Solvers are black-box optimizers over dye mixing ratios: ask() proposes
// ratio vectors, the workcell mixes and measures them, tell() feeds the
// scored observations back. "Treating the problem as a black box ...
// allows us to employ the problem as a surrogate for more complex
// problems and to experiment with different decision procedures" — the
// interface is deliberately minimal so decision procedures are swappable
// "without changes to other elements of the system".
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "color/dye.hpp"
#include "color/rgb.hpp"
#include "support/random.hpp"

namespace sdl::solver {

/// One evaluated sample: the proposed ratios, what the camera measured,
/// and the objective value (lower is better).
struct Observation {
    std::vector<double> ratios;
    color::Rgb8 measured;
    double score = 0.0;
};

/// A decision procedure: each solver implements name() and ask(); the
/// base keeps the shared bookkeeping, an archive of every observation
/// plus the best one.
class Solver {
public:
    virtual ~Solver() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Proposes `n` ratio vectors, each with one entry per dye in [0, 1]
    /// and a non-degenerate sum (so the well is never empty).
    [[nodiscard]] virtual std::vector<std::vector<double>> ask(std::size_t n) = 0;

    /// Reports evaluated proposals back to the solver: archives them and
    /// tracks the best. A solver that adapts to feedback overrides it and
    /// calls Solver::tell first.
    virtual void tell(std::span<const Observation> observations);

    /// Best observation seen so far (nullopt before any tell()).
    [[nodiscard]] std::optional<Observation> best() const;

protected:
    [[nodiscard]] const std::vector<Observation>& archive() const noexcept {
        return archive_;
    }
    /// Observations from the most recent tell() call — the paper's
    /// "previous population".
    [[nodiscard]] const std::vector<Observation>& previous_generation() const noexcept {
        return previous_generation_;
    }

private:
    std::vector<Observation> archive_;
    std::vector<Observation> previous_generation_;
    std::optional<Observation> best_;
};

/// Validates a proposal's shape: color::kDyes entries, all in [0,1], sum > 0.
[[nodiscard]] bool is_valid_proposal(std::span<const double> ratios);

/// The solvers' shared random draw: fills `out` (kDyes entries) with
/// uniform ratios, redrawing the whole vector until it is a valid
/// proposal. Writes in place, so a caller-owned buffer costs no allocation.
void draw_uniform(support::Rng& rng, std::span<double> out);
[[nodiscard]] std::vector<double> draw_uniform(support::Rng& rng);

/// Points of the `levels`^kDyes lattice over [0, 1]^kDyes.
[[nodiscard]] constexpr std::size_t lattice_size(std::size_t levels) noexcept {
    std::size_t size = 1;
    for (std::size_t d = 0; d < color::kDyes; ++d) size *= levels;
    return size;
}
/// Lattice point `index`: dye d's ratio is digit d of `index` in base
/// `levels` (least significant first) over levels - 1.
[[nodiscard]] std::vector<double> lattice_point(std::size_t index, std::size_t levels);

}  // namespace sdl::solver
