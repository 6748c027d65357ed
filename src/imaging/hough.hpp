// Hough circle transform (gradient-directed two-stage variant).
//
// Stage 1 accumulates center votes by marching along the gradient
// direction of every strong edge pixel for each candidate radius; local
// maxima after non-maximum suppression become circle centers. Stage 2
// estimates each circle's radius from the mode of supporting edge-pixel
// distances. This mirrors OpenCV's HOUGH_GRADIENT method, the algorithm
// the paper uses to find microplate wells (§2.4).
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/filters.hpp"
#include "imaging/geometry.hpp"
#include "imaging/image.hpp"

namespace sdl::imaging {

struct CircleDetection {
    Vec2 center;
    double radius = 0.0;
    double votes = 0.0;  ///< accumulator support at the center
};

struct HoughParams {
    double r_min = 5.0;
    double r_max = 20.0;
    double min_center_dist = 10.0;    ///< non-max suppression distance
    std::size_t max_circles = 256;
};

/// Detects circles in a grayscale plane (the whole plane is searched;
/// callers crop to their region of interest first). Results are sorted
/// by votes, strongest first.
[[nodiscard]] std::vector<CircleDetection> hough_circles(const GrayImage& gray,
                                                         const HoughParams& params);

/// Reusable transform workspace: smoothed plane, gradient planes,
/// edge list, accumulators, and the radius histogram persist across
/// frames. One per reader session; never shared across threads.
struct HoughScratch {
    struct Edge {
        float x;
        float y;
        float dx;
        float dy;
    };
    struct Peak {
        int x;
        int y;
        float votes;
    };
    GrayImage smooth;
    BlurScratch blur;
    Gradients grad;
    std::vector<Edge> edges;
    std::vector<Peak> peaks;
    std::vector<float> acc;
    std::vector<float> acc_vsum;  ///< vertical pass of the vote smoothing
    std::vector<float> smooth_acc;
    std::vector<int> radius_hist;
    /// Uniform spatial grid over the edge list (CSR layout) so radius
    /// estimation scans only edges near a peak instead of all of them.
    std::vector<std::int32_t> bucket_start;
    std::vector<std::int32_t> bucket_fill;
    std::vector<std::int32_t> bucket_items;
};

/// hough_circles with a persistent workspace (no allocation once warm,
/// aside from the returned vector); bitwise identical results.
[[nodiscard]] std::vector<CircleDetection> hough_circles(const GrayImage& gray,
                                                         const HoughParams& params,
                                                         HoughScratch& scratch);

}  // namespace sdl::imaging
