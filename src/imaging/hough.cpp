#include "imaging/hough.hpp"

#include <algorithm>
#include <cmath>

#include "imaging/filters.hpp"
#include "linalg/fastmath.hpp"
#include "support/common.hpp"

namespace sdl::imaging {

// The vote accumulator issues hundreds of thousands of roundings per
// frame and std::lround was its single largest cost; see fastmath.hpp
// for round_half_away's (documented, tolerated) boundary behavior.
using linalg::round_half_away;

namespace {

constexpr float kGradThreshold = 0.06F;  ///< minimum Sobel magnitude for edges
constexpr double kVoteFraction = 0.25;   ///< accept peaks >= fraction of the
                                         ///< strongest peak's votes
constexpr double kMinVotes = 8.0;        ///< absolute vote floor
constexpr double kBlurSigma = 1.0;       ///< pre-smoothing

}  // namespace

std::vector<CircleDetection> hough_circles(const GrayImage& gray, const HoughParams& params) {
    HoughScratch scratch;
    return hough_circles(gray, params, scratch);
}

std::vector<CircleDetection> hough_circles(const GrayImage& gray, const HoughParams& params,
                                           HoughScratch& scratch) {
    support::check(params.r_min > 0 && params.r_max >= params.r_min, "invalid radius range");
    std::vector<CircleDetection> circles;

    const int rw = gray.width();
    const int rh = gray.height();
    if (rw < 3 || rh < 3) return circles;

    gaussian_blur(gray, kBlurSigma, scratch.smooth, scratch.blur);
    const GrayImage& smooth = scratch.smooth;
    sobel(smooth, scratch.grad);
    const Gradients& grad = scratch.grad;

    // Edge pixels. The magnitude is
    // sqrt(gx^2 + gy^2) rather than hypot(): the operands are tame
    // (|g| < 8), so overflow care buys nothing, and sqrt keeps this loop
    // out of a libm slow path that used to dominate edge collection.
    using Edge = HoughScratch::Edge;
    std::vector<Edge>& edges = scratch.edges;
    edges.clear();
    for (int y = 0; y < rh; ++y) {
        const float* grow = grad.gx.values().data() +
                            static_cast<std::size_t>(y) * static_cast<std::size_t>(rw);
        const float* grow_y = grad.gy.values().data() +
                              static_cast<std::size_t>(y) * static_cast<std::size_t>(rw);
        for (int x = 0; x < rw; ++x) {
            const double gx = grow[x];
            const double gy = grow_y[x];
            const double mag = std::sqrt(gx * gx + gy * gy);
            if (mag < kGradThreshold) continue;
            edges.push_back({static_cast<float>(x), static_cast<float>(y),
                             static_cast<float>(gx / mag), static_cast<float>(gy / mag)});
        }
    }
    if (edges.empty()) return circles;

    // Stage 1: center accumulator.
    std::vector<float>& acc = scratch.acc;
    acc.assign(static_cast<std::size_t>(rw) * static_cast<std::size_t>(rh), 0.0F);
    const int ir_min = static_cast<int>(std::floor(params.r_min));
    const int ir_max = static_cast<int>(std::ceil(params.r_max));
    for (const Edge& e : edges) {
        for (int r = ir_min; r <= ir_max; ++r) {
            for (const int sign : {-1, 1}) {
                const int cx = round_half_away(e.x + sign * r * e.dx);
                const int cy = round_half_away(e.y + sign * r * e.dy);
                if (cx < 0 || cx >= rw || cy < 0 || cy >= rh) continue;
                acc[static_cast<std::size_t>(cy) * static_cast<std::size_t>(rw) +
                    static_cast<std::size_t>(cx)] += 1.0F;
            }
        }
    }

    // Light 3x3 smoothing concentrates votes split between adjacent bins.
    // Separable (vertical then horizontal): every accumulator value is an
    // integer-valued float well below 2^24, so the box sums are exact and
    // identical to the direct 9-tap sum regardless of addition order.
    std::vector<float>& vsum = scratch.acc_vsum;
    vsum.assign(acc.size(), 0.0F);
    for (int y = 1; y < rh - 1; ++y) {
        const float* above = acc.data() + static_cast<std::size_t>(y - 1) * static_cast<std::size_t>(rw);
        const float* here = above + static_cast<std::size_t>(rw);
        const float* below = here + static_cast<std::size_t>(rw);
        float* out = vsum.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(rw);
        for (int x = 0; x < rw; ++x) out[x] = above[x] + here[x] + below[x];
    }
    std::vector<float>& smooth_acc = scratch.smooth_acc;
    smooth_acc.assign(acc.size(), 0.0F);
    for (int y = 1; y < rh - 1; ++y) {
        const float* src = vsum.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(rw);
        float* out = smooth_acc.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(rw);
        for (int x = 1; x < rw - 1; ++x) {
            out[x] = (src[x - 1] + src[x] + src[x + 1]) / 9.0F;
        }
    }

    // Collect local maxima.
    using Peak = HoughScratch::Peak;
    std::vector<Peak>& peaks = scratch.peaks;
    peaks.clear();
    float strongest = 0.0F;
    for (int y = 1; y < rh - 1; ++y) {
        for (int x = 1; x < rw - 1; ++x) {
            const float v = smooth_acc[static_cast<std::size_t>(y) * static_cast<std::size_t>(rw) +
                                       static_cast<std::size_t>(x)];
            if (v < kMinVotes) continue;
            bool is_max = true;
            for (int dy = -1; dy <= 1 && is_max; ++dy) {
                for (int dx = -1; dx <= 1 && is_max; ++dx) {
                    if (dx == 0 && dy == 0) continue;
                    const float n =
                        smooth_acc[static_cast<std::size_t>(y + dy) * static_cast<std::size_t>(rw) +
                                   static_cast<std::size_t>(x + dx)];
                    if (n > v) is_max = false;
                }
            }
            if (is_max) {
                peaks.push_back({x, y, v});
                strongest = std::max(strongest, v);
            }
        }
    }
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak& a, const Peak& b) { return a.votes > b.votes; });

    // Non-maximum suppression + radius estimation.
    const double vote_floor =
        std::max(kMinVotes, kVoteFraction * static_cast<double>(strongest));
    const double min_dist2 = params.min_center_dist * params.min_center_dist;
    const float reach = static_cast<float>(ir_max + 1);
    std::vector<int>& radius_hist = scratch.radius_hist;
    radius_hist.assign(static_cast<std::size_t>(ir_max) + 2, 0);

    // Spatial grid over the edges (CSR buckets) so each peak's radius
    // scan touches only nearby edges instead of the whole list. Cells are
    // wider than the gating reach by a safe margin, so every edge inside
    // the distance gate lives in the peak's 3x3 cell neighborhood and the
    // (integer) histogram is identical to a full scan.
    const int cell = static_cast<int>(reach) + 2;
    const int grid_w = (rw + cell - 1) / cell;
    const int grid_h = (rh + cell - 1) / cell;
    std::vector<std::int32_t>& bucket_start = scratch.bucket_start;
    std::vector<std::int32_t>& bucket_fill = scratch.bucket_fill;
    std::vector<std::int32_t>& bucket_items = scratch.bucket_items;
    const auto cell_of = [&](const Edge& e) {
        return (static_cast<int>(e.y) / cell) * grid_w + static_cast<int>(e.x) / cell;
    };
    bucket_start.assign(static_cast<std::size_t>(grid_w) * grid_h + 1, 0);
    for (const Edge& e : edges) ++bucket_start[static_cast<std::size_t>(cell_of(e)) + 1];
    for (std::size_t i = 1; i < bucket_start.size(); ++i) {
        bucket_start[i] += bucket_start[i - 1];
    }
    bucket_fill.assign(bucket_start.begin(), bucket_start.end() - 1);
    bucket_items.resize(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
        bucket_items[static_cast<std::size_t>(
            bucket_fill[static_cast<std::size_t>(cell_of(edges[i]))]++)] =
            static_cast<std::int32_t>(i);
    }

    for (const Peak& p : peaks) {
        if (p.votes < vote_floor) break;
        bool suppressed = false;
        for (const CircleDetection& c : circles) {
            const double ddx = c.center.x - p.x;
            const double ddy = c.center.y - p.y;
            if (ddx * ddx + ddy * ddy < min_dist2) {
                suppressed = true;
                break;
            }
        }
        if (suppressed) continue;

        // Stage 2: radius = mode of supporting edge distances whose
        // gradient points through the center. Squared-distance gating
        // keeps the scan cheap: most edges belong to other wells.
        std::fill(radius_hist.begin(), radius_hist.end(), 0);
        const float r2_max = reach * reach;
        const float r2_min = static_cast<float>((ir_min - 1) * (ir_min - 1));
        const int pcx = p.x / cell;
        const int pcy = p.y / cell;
        for (int by = std::max(0, pcy - 1); by <= std::min(grid_h - 1, pcy + 1); ++by) {
            for (int bx = std::max(0, pcx - 1); bx <= std::min(grid_w - 1, pcx + 1);
                 ++bx) {
                const std::size_t bucket = static_cast<std::size_t>(by) * grid_w + bx;
                for (std::int32_t k = bucket_start[bucket];
                     k < bucket_start[bucket + 1]; ++k) {
                    const Edge& e = edges[static_cast<std::size_t>(
                        bucket_items[static_cast<std::size_t>(k)])];
                    const float dx = e.x - static_cast<float>(p.x);
                    const float dy = e.y - static_cast<float>(p.y);
                    const float d2 = dx * dx + dy * dy;
                    if (d2 > r2_max || d2 < r2_min || d2 < 1e-6F) continue;
                    const float d = std::sqrt(d2);
                    // The gradient must be near-radial for this edge to
                    // support the circle.
                    const float align = std::fabs((dx * e.dx + dy * e.dy) / d);
                    if (align < 0.85F) continue;
                    const auto bin = static_cast<std::size_t>(round_half_away(d));
                    if (bin < radius_hist.size()) ++radius_hist[bin];
                }
            }
        }
        std::size_t best_bin = static_cast<std::size_t>(ir_min);
        for (std::size_t r = static_cast<std::size_t>(ir_min); r < radius_hist.size(); ++r) {
            if (radius_hist[r] > radius_hist[best_bin]) best_bin = r;
        }
        if (radius_hist[best_bin] <= 2) continue;  // no radial support: noise peak

        circles.push_back({{static_cast<double>(p.x), static_cast<double>(p.y)},
                           static_cast<double>(best_bin),
                           static_cast<double>(p.votes)});
        if (circles.size() >= params.max_circles) break;
    }
    return circles;
}

}  // namespace sdl::imaging
