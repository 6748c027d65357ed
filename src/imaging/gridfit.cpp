#include "imaging/gridfit.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lstsq.hpp"
#include "support/common.hpp"

namespace sdl::imaging {

namespace {

constexpr int kIterations = 3;          ///< assign-and-refit rounds
constexpr std::size_t kMinInliers = 6;  ///< fewest assignments worth a refit

}  // namespace

Vec2 GridModel::to_grid(Vec2 p) const {
    const double det = row_axis.cross(col_axis);
    if (std::fabs(det) < 1e-9) {
        throw support::Error("vision", "degenerate grid axes");
    }
    const Vec2 d = p - origin;
    // Solve [row_axis col_axis] * (r, c)^T = d by Cramer's rule.
    const double r = d.cross(col_axis) / det;
    const double c = row_axis.cross(d) / det;
    return {r, c};
}

GridFit fit_grid(std::span<const Vec2> points, const GridModel& initial, int rows, int cols,
                 double inlier_radius) {
    support::check(rows > 0 && cols > 0, "grid dimensions must be positive");
    support::check(inlier_radius > 0.0, "inlier radius must be positive");

    GridFit fit;
    fit.model = initial;

    for (int iter = 0; iter < kIterations; ++iter) {
        // Assign each point to its nearest lattice node under the current
        // model; keep those within the inlier radius.
        struct Assignment {
            Vec2 point;
            int row;
            int col;
        };
        std::vector<Assignment> assigned;
        assigned.reserve(points.size());
        for (const Vec2& p : points) {
            Vec2 rc;
            try {
                rc = fit.model.to_grid(p);
            } catch (const support::Error&) {
                return fit;
            }
            const int r = static_cast<int>(std::lround(rc.x));
            const int c = static_cast<int>(std::lround(rc.y));
            if (r < 0 || r >= rows || c < 0 || c >= cols) continue;
            if (distance(fit.model.center(r, c), p) > inlier_radius) continue;
            assigned.push_back({p, r, c});
        }
        // The affine refit is well-posed only when assignments span at
        // least two distinct rows AND two distinct columns; a single
        // filled row (common on a fresh plate) must not drag the model.
        bool spans_grid = false;
        if (!assigned.empty()) {
            int min_r = assigned.front().row, max_r = min_r;
            int min_c = assigned.front().col, max_c = min_c;
            for (const auto& a : assigned) {
                min_r = std::min(min_r, a.row);
                max_r = std::max(max_r, a.row);
                min_c = std::min(min_c, a.col);
                max_c = std::max(max_c, a.col);
            }
            spans_grid = (max_r > min_r) && (max_c > min_c);
        }
        if (assigned.size() < kMinInliers || !spans_grid) {
            // Not enough support to refine: report the assignment stats of
            // the incoming model and stop.
            fit.inliers = assigned.size();
            double sum = 0.0;
            for (const auto& a : assigned) {
                sum += distance(fit.model.center(a.row, a.col), a.point);
            }
            fit.mean_residual = assigned.empty() ? 0.0 : sum / static_cast<double>(assigned.size());
            return fit;
        }

        // Solve x and y channels independently: coord = o + r*a + c*b.
        const std::size_t n = assigned.size();
        linalg::Matrix a(n, 3);
        linalg::Vec bx(n), by(n);
        for (std::size_t i = 0; i < n; ++i) {
            a(i, 0) = 1.0;
            a(i, 1) = assigned[i].row;
            a(i, 2) = assigned[i].col;
            bx[i] = assigned[i].point.x;
            by[i] = assigned[i].point.y;
        }
        const linalg::Vec sx = linalg::robust_lstsq(a, bx, 1.5, 3);
        const linalg::Vec sy = linalg::robust_lstsq(a, by, 1.5, 3);
        fit.model.origin = {sx[0], sy[0]};
        fit.model.row_axis = {sx[1], sy[1]};
        fit.model.col_axis = {sx[2], sy[2]};

        fit.inliers = n;
        double sum = 0.0;
        for (const auto& asg : assigned) {
            sum += distance(fit.model.center(asg.row, asg.col), asg.point);
        }
        fit.mean_residual = sum / static_cast<double>(n);
    }
    return fit;
}

}  // namespace sdl::imaging
