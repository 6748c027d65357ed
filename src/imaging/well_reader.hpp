// The complete §2.4 image-processing pipeline:
//   1. detect the fiducial marker;
//   2. derive the plate's approximate pixel boundaries from the marker's
//      size and position;
//   3. detect circular wells with the Hough transform inside that region;
//   4. align a lattice to the detected circles, predicting centers for
//      every well — including those HoughCircles missed;
//   5. report the color at each (predicted) well center.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "imaging/fiducial.hpp"
#include "imaging/gridfit.hpp"
#include "imaging/hough.hpp"
#include "imaging/image.hpp"
#include "imaging/plate_render.hpp"

namespace sdl::imaging {

struct WellReadParams {
    SceneGeometry geometry;  ///< marker-relative plate layout
};

struct WellReadout {
    bool ok = false;
    std::string error;  ///< set when !ok (e.g. "marker not found")

    std::vector<color::Rgb8> colors;  ///< rows*cols, row-major
    std::vector<Vec2> centers;        ///< predicted well centers
    MarkerDetection marker;

    std::size_t hough_circles_found = 0;  ///< raw circle detections in ROI
    std::size_t wells_with_circle = 0;    ///< lattice nodes with support
    std::size_t wells_rescued = 0;        ///< nodes predicted by grid only
    double grid_residual_px = 0.0;        ///< mean inlier residual
    /// True when PlateReader served this frame from the marker-ROI fast
    /// path (observability only; the payload is bitwise identical either
    /// way).
    bool roi_fast_path = false;
};

/// Reusable buffer pool for the whole §2.4 pipeline: marker-detection
/// planes, Hough workspace, and the plate-region luma plane persist
/// across frames, so a steady-state read allocates only its returned
/// WellReadout. One per PlateReader; never shared across threads.
struct FrameScratch {
    MarkerScratch marker;
    HoughScratch hough;
    GrayImage gray_roi;  ///< plate-region luma (frame ROI, local coords)
    std::vector<MarkerDetection> detections;
    std::vector<Vec2> circle_centers;
};

/// Runs the full pipeline on one camera frame: the marker is the largest
/// dictionary marker in the frame, whatever its id.
[[nodiscard]] WellReadout read_plate(const Image& frame, const WellReadParams& params);

/// Session reader for a fixed camera: the fiducial stays put between
/// frames, so the detector scans only a small neighborhood of the marker
/// hint (detect_markers_in_region) and the luma conversion covers just
/// the marker and plate ROIs. The hint starts at the calibrated marker
/// pose when one is given (else the first frame is a full scan), follows
/// every detected marker, and survives a failed full scan. Any doubt —
/// contaminated region, marker missing or moved — falls back to the
/// full-frame pipeline, so every frame's readout is bitwise identical to
/// read_plate on the same frame (single tracked marker; a scene with
/// several markers needs full scans).
class PlateReader {
public:
    explicit PlateReader(WellReadParams params,
                         std::optional<MarkerDetection> calibrated_marker = std::nullopt)
        : params_(std::move(params)), hint_(std::move(calibrated_marker)) {}

    [[nodiscard]] WellReadout read(const Image& frame);
    /// Reads a lazy frame, materializing only what the read looks at: the
    /// hinted marker region, the plate ROI and each readout disk — or the
    /// whole frame when a full scan is needed. Same readout as read() on
    /// the frame rendered whole.
    [[nodiscard]] WellReadout read(LazyFrame& frame);

    [[nodiscard]] const WellReadParams& params() const noexcept { return params_; }
    /// Frames served by the marker-ROI fast path / by full-frame scans.
    [[nodiscard]] std::size_t roi_hits() const noexcept { return roi_hits_; }
    [[nodiscard]] std::size_t full_scans() const noexcept { return full_scans_; }

private:
    /// Both read() overloads; `lazy` is null for a finished image and
    /// otherwise owns `frame`.
    [[nodiscard]] WellReadout read_frame(const Image& frame, LazyFrame* lazy);

    WellReadParams params_;
    FrameScratch scratch_;
    std::optional<MarkerDetection> hint_;
    std::size_t roi_hits_ = 0;
    std::size_t full_scans_ = 0;
};

}  // namespace sdl::imaging
