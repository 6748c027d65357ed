// Lattice fitting: align a rows x cols grid to detected well circles.
//
// HoughCircles misses wells (low-contrast samples) and occasionally fires
// on reflections; the paper's rescue (§2.4) aligns a grid to "all
// well-sized circles within the approximate plate position" and predicts
// every well center from the grid. The model is affine in (row, col):
//   center(r, c) = origin + r * row_axis + c * col_axis
// fit by Huber-robust least squares from circle-to-node assignments.
#pragma once

#include <span>
#include <vector>

#include "imaging/geometry.hpp"

namespace sdl::imaging {

struct GridModel {
    Vec2 origin;    ///< center of well (0, 0)
    Vec2 row_axis;  ///< displacement per row step
    Vec2 col_axis;  ///< displacement per column step

    [[nodiscard]] Vec2 center(double row, double col) const noexcept {
        return origin + row_axis * row + col_axis * col;
    }

    /// Continuous (row, col) coordinates of an image point (inverse of
    /// center()); throws Error("vision") if the axes are degenerate.
    [[nodiscard]] Vec2 to_grid(Vec2 p) const;
};

struct GridFit {
    GridModel model;
    std::size_t inliers = 0;       ///< points assigned to a lattice node
    double mean_residual = 0.0;    ///< mean inlier distance to its node, px
};

/// Refines `initial` so the lattice passes through `points`, in three
/// assign-and-refit rounds. Points farther than `inlier_radius` from
/// their nearest node are excluded from the fit (false-positive circles).
/// Returns the initial model unchanged when fewer than six points can be
/// assigned.
[[nodiscard]] GridFit fit_grid(std::span<const Vec2> points, const GridModel& initial,
                               int rows, int cols, double inlier_radius);

}  // namespace sdl::imaging
