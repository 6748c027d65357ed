#include "imaging/well_reader.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"

namespace sdl::imaging {

namespace {

constexpr double kRoiMargin = 1.2;         ///< ROI padding around the grid, in pitches
constexpr double kRadiusTolerance = 0.45;  ///< Hough radius range around expected
constexpr double kInlierRadius = 0.42;     ///< grid assignment gate, in pitches
constexpr double kSampleRadius = 0.55;     ///< color readout disk, in well radii

/// read_plate's marker choice: the largest detection of any id.
const MarkerDetection* select_marker(const std::vector<MarkerDetection>& markers) {
    const MarkerDetection* marker = nullptr;
    for (const auto& m : markers) {
        if (marker == nullptr || m.side > marker->side) marker = &m;
    }
    return marker;
}

/// Renders `rect` of a lazy frame before the read looks at it; a
/// finished image (lazy == nullptr) has nothing to render.
void need(LazyFrame* lazy, Rect rect) {
    if (lazy != nullptr) lazy->materialize(rect);
}

/// Steps 2-5 of the pipeline, given the detected marker.
WellReadout read_with_marker(const Image& frame, LazyFrame* lazy,
                             const WellReadParams& params, const MarkerDetection& marker,
                             FrameScratch& scratch) {
    WellReadout out;
    const SceneGeometry& g = params.geometry;
    out.marker = marker;

    // 2. Approximate plate region from marker pose.
    const double s = marker.side;
    const Vec2 ux = Vec2{1, 0}.rotated(marker.angle);
    const Vec2 uy = Vec2{0, 1}.rotated(marker.angle);
    GridModel initial;
    initial.origin =
        marker.center + ux * (kPlateOffset.x * s) + uy * (kPlateOffset.y * s);
    initial.row_axis = uy * (kWellSpacing * s);
    initial.col_axis = ux * (kWellSpacing * s);

    const double pitch = kWellSpacing * s;
    double min_x = 1e300, min_y = 1e300, max_x = -1e300, max_y = -1e300;
    for (const int r : {0, g.rows - 1}) {
        for (const int c : {0, g.cols - 1}) {
            const Vec2 p = initial.center(r, c);
            min_x = std::min(min_x, p.x);
            max_x = std::max(max_x, p.x);
            min_y = std::min(min_y, p.y);
            max_y = std::max(max_y, p.y);
        }
    }
    const double margin = kRoiMargin * pitch;
    const Rect roi = Rect{static_cast<int>(std::floor(min_x - margin)),
                          static_cast<int>(std::floor(min_y - margin)),
                          static_cast<int>(std::ceil(max_x + margin)),
                          static_cast<int>(std::ceil(max_y + margin))}
                         .clipped(frame.width(), frame.height());

    // 3. Hough circles inside the plate region. Only that region is
    // converted to luma; the transform then sees its whole (pre-cropped)
    // input, and the integer ROI offset is added back to the detected
    // centers — exact, since Hough centers are integer-valued.
    const double expected_r = kWellRadius * s;
    HoughParams hough;
    hough.r_min = std::max(2.0, expected_r * (1.0 - kRadiusTolerance));
    hough.r_max = expected_r * (1.0 + kRadiusTolerance);
    hough.min_center_dist = 0.6 * pitch;
    hough.max_circles = static_cast<std::size_t>(g.well_count()) * 2;
    need(lazy, roi);
    to_gray_roi(frame, roi, scratch.gray_roi);
    const auto circles = hough_circles(scratch.gray_roi, hough, scratch.hough);
    out.hough_circles_found = circles.size();

    // 4. Grid alignment: refine the marker-derived lattice with the
    // detected circle centers; false positives are rejected by the inlier
    // gate, false negatives are filled in by the fitted model.
    std::vector<Vec2>& centers_detected = scratch.circle_centers;
    centers_detected.clear();
    centers_detected.reserve(circles.size());
    for (const auto& c : circles) {
        centers_detected.push_back({c.center.x + roi.x0, c.center.y + roi.y0});
    }

    const GridFit fit = fit_grid(centers_detected, initial, g.rows, g.cols,
                                 kInlierRadius * pitch);
    out.grid_residual_px = fit.mean_residual;

    // Count distinct lattice nodes with direct circle support.
    std::vector<bool> supported(static_cast<std::size_t>(g.well_count()), false);
    for (const Vec2& p : centers_detected) {
        Vec2 rc;
        try {
            rc = fit.model.to_grid(p);
        } catch (const support::Error&) {
            continue;
        }
        const int r = static_cast<int>(std::lround(rc.x));
        const int c = static_cast<int>(std::lround(rc.y));
        if (r < 0 || r >= g.rows || c < 0 || c >= g.cols) continue;
        if (distance(fit.model.center(r, c), p) <= kInlierRadius * pitch) {
            supported[static_cast<std::size_t>(r * g.cols + c)] = true;
        }
    }
    out.wells_with_circle = static_cast<std::size_t>(
        std::count(supported.begin(), supported.end(), true));
    out.wells_rescued = static_cast<std::size_t>(g.well_count()) - out.wells_with_circle;

    // 5. Color readout at every predicted center.
    out.centers.reserve(static_cast<std::size_t>(g.well_count()));
    out.colors.reserve(static_cast<std::size_t>(g.well_count()));
    const double sample_r = kSampleRadius * expected_r;
    for (int r = 0; r < g.rows; ++r) {
        for (int c = 0; c < g.cols; ++c) {
            const Vec2 center = fit.model.center(r, c);
            out.centers.push_back(center);
            // mean_color_in_disk reads up to ceil(c + r) inclusive.
            need(lazy, {static_cast<int>(std::floor(center.x - sample_r)),
                        static_cast<int>(std::floor(center.y - sample_r)),
                        static_cast<int>(std::ceil(center.x + sample_r)) + 1,
                        static_cast<int>(std::ceil(center.y + sample_r)) + 1});
            out.colors.push_back(mean_color_in_disk(frame, center.x, center.y, sample_r));
        }
    }
    out.ok = true;
    return out;
}

/// The full pipeline over one frame, reusing `scratch`'s buffers.
WellReadout read_plate_with(const Image& frame, const WellReadParams& params,
                            FrameScratch& scratch) {
    // 1. Fiducial marker, full-frame scan.
    detect_markers(frame, MarkerDictionary::standard(), scratch.marker,
                   scratch.detections);
    const MarkerDetection* marker = select_marker(scratch.detections);
    if (marker == nullptr) {
        WellReadout out;
        out.error = "fiducial marker not found";
        return out;
    }
    return read_with_marker(frame, nullptr, params, *marker, scratch);
}

}  // namespace

WellReadout read_plate(const Image& frame, const WellReadParams& params) {
    FrameScratch scratch;
    return read_plate_with(frame, params, scratch);
}

WellReadout PlateReader::read(const Image& frame) { return read_frame(frame, nullptr); }

WellReadout PlateReader::read(LazyFrame& frame) {
    return read_frame(frame.image(), &frame);
}

WellReadout PlateReader::read_frame(const Image& frame, LazyFrame* lazy) {
    if (hint_.has_value()) {
        // Scan only a padded neighborhood of the hinted marker pose. The
        // padding keeps the (static) marker blob clear of the region's
        // contamination band, so a hit is bitwise identical to the
        // full-frame detection; anything suspicious falls through.
        const Quad& q = hint_->corners;
        double min_x = q[0].x, max_x = q[0].x, min_y = q[0].y, max_y = q[0].y;
        for (const Vec2& corner : q) {
            min_x = std::min(min_x, corner.x);
            max_x = std::max(max_x, corner.x);
            min_y = std::min(min_y, corner.y);
            max_y = std::max(max_y, corner.y);
        }
        const int pad = marker_region_margin() +
                        static_cast<int>(std::ceil(0.5 * hint_->side)) + 4;
        const Rect region{static_cast<int>(std::floor(min_x)) - pad,
                          static_cast<int>(std::floor(min_y)) - pad,
                          static_cast<int>(std::ceil(max_x)) + pad,
                          static_cast<int>(std::ceil(max_y)) + pad};
        // Detections from the region are exact (contaminated blobs are
        // skipped, not decoded differently); a tracked marker that moved
        // into the contaminated band simply goes undetected here and the
        // full-frame fallback below takes over. This is where the
        // single-tracked-marker assumption bites: a second, larger
        // matching marker outside the region would win a full scan.
        need(lazy, region);
        detect_markers_in_region(frame, MarkerDictionary::standard(), region,
                                 scratch_.marker, scratch_.detections);
        const MarkerDetection* marker = select_marker(scratch_.detections);
        if (marker != nullptr) {
            ++roi_hits_;
            WellReadout out = read_with_marker(frame, lazy, params_, *marker, scratch_);
            out.roi_fast_path = true;
            hint_ = out.marker;
            return out;
        }
    }
    ++full_scans_;
    need(lazy, {0, 0, frame.width(), frame.height()});
    WellReadout out = read_plate_with(frame, params_, scratch_);
    // A failed scan (occluded marker) keeps the last good hint: in a
    // single-marker scene a region hit on the next frame is the same
    // detection a full scan would make, and a miss falls back to one.
    if (out.ok) hint_ = out.marker;
    return out;
}

}  // namespace sdl::imaging
