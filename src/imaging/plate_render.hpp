// Synthetic camera: renders the microplate scene the webcam would see.
//
// This is the substitute for the physical Logitech camera + ring light:
// a 96-well microplate next to a fiducial marker, with realistic
// nuisances — sensor noise, vignetting, an illumination gradient, well
// wall rings, and empty wells that produce the low-contrast circles that
// HoughCircles tends to miss (the false negatives §2.4's grid alignment
// rescues).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "imaging/fiducial.hpp"
#include "imaging/geometry.hpp"
#include "imaging/image.hpp"
#include "support/random.hpp"

namespace sdl::imaging {

/// Geometry shared between renderer and reader, expressed in units of the
/// fiducial marker's side length so the reader can recover everything
/// from the detected marker alone (as the paper's pipeline does).
struct SceneGeometry {
    int rows = 8;
    int cols = 12;
    /// Well pitch in marker-side units.
    double spacing = 0.62;
    /// Well radius in marker-side units.
    double well_radius = 0.24;
    /// Marker center -> well(0,0) center, in the marker's canonical frame.
    Vec2 plate_offset{1.45, -2.17};

    [[nodiscard]] int well_count() const noexcept { return rows * cols; }

    friend bool operator==(const SceneGeometry&, const SceneGeometry&) = default;
};

struct PlateScene {
    int width = 800;
    int height = 600;
    SceneGeometry geometry;

    Vec2 marker_center{110.0, 300.0};
    double marker_side_px = 56.0;
    double angle_rad = 0.0;  ///< scene rotation (plate + marker together)
    std::size_t marker_id = 7;

    color::Rgb8 background{68, 70, 74};    ///< workcell deck
    color::Rgb8 plate_body{206, 204, 198};  ///< plate plastic
    color::Rgb8 well_wall{38, 38, 40};      ///< rim ring of filled wells
    /// Unfilled wells: translucent plastic shows nearly the plate color,
    /// which is what makes HoughCircles "prone to false negatives" on
    /// partially used plates (§2.4). The defaults sit right at the
    /// edge-detection margin so empty wells are found only sporadically —
    /// the grid alignment predicts the rest.
    color::Rgb8 empty_well{201, 199, 194};  ///< unfilled well interior
    color::Rgb8 empty_rim{196, 194, 189};

    double wall_thickness = 0.25;  ///< ring thickness as fraction of radius
    double noise_sigma = 2.0;      ///< Gaussian sensor noise, 8-bit units
    double vignette = 0.10;        ///< corner darkening strength
    Vec2 illum_gradient{0.04, -0.03};  ///< linear shading across the frame

    /// Memberwise exact equality — the PlateRenderer base-raster cache
    /// key. Defaulted so a new field can never silently fall out of the
    /// comparison and leave the cache serving stale rasters.
    friend bool operator==(const PlateScene&, const PlateScene&) = default;
};

/// Renders the scene. `well_colors` has rows*cols entries in row-major
/// order; `filled` marks which wells contain liquid (nullopt = all). The
/// render draws exactly one value from `rng` at any frame size: the
/// frame's noise key. Each noise sample is then a pure function of
/// (key, pixel, channel) (imaging/sensor_noise.hpp).
[[nodiscard]] Image render_plate(const PlateScene& scene,
                                 std::span<const color::Rgb8> well_colors,
                                 support::Rng& rng,
                                 const std::vector<bool>* filled = nullptr);

/// Ground-truth well-center positions for a scene (for tests/metrics).
[[nodiscard]] std::vector<Vec2> true_well_centers(const PlateScene& scene);

/// Adapts a scene to a plate format. Up to the calibrated 8x12 the scene
/// passes through with only rows/cols set (96-well frames stay bitwise
/// identical to the pre-adaptation renderer). Denser formats (384-, 1536-
/// well) shrink the well pitch so the grid spans the same deck area, and
/// upscale the frame + fiducial by the matching integer factor so each
/// well keeps its 96-well *pixel* size — the Hough radius band and the
/// §2.4 marker-relative geometry both keep working unchanged.
[[nodiscard]] PlateScene scene_for_plate(PlateScene scene, int rows, int cols);

/// Field-by-field scene equality (geometry, colors, nuisances) — the
/// base-raster cache key.
[[nodiscard]] bool same_scene(const PlateScene& a, const PlateScene& b) noexcept;

/// Session renderer for a fixed camera. The rasterization up to (and
/// excluding) the wells — deck background plus plate body — depends only
/// on the scene, not on well contents, so consecutive frames of an
/// unchanged scene start from a cached copy of that base raster instead
/// of re-rasterizing it. Wells, marker, illumination, and sensor noise
/// are applied per frame in the exact order render_plate uses, and the
/// frame draws the same single noise key, so every frame is bitwise
/// identical to a from-scratch render with the same rng stream. Owns the
/// per-column illumination precompute and the sensor's noise-row buffer
/// as well. One per camera; never shared across threads.
class PlateRenderer {
public:
    [[nodiscard]] Image render(const PlateScene& scene,
                               std::span<const color::Rgb8> well_colors,
                               support::Rng& rng,
                               const std::vector<bool>* filled = nullptr);

    /// Frames that reused the cached base raster.
    [[nodiscard]] std::size_t base_hits() const noexcept { return base_hits_; }
    [[nodiscard]] std::size_t base_rebuilds() const noexcept { return base_rebuilds_; }

private:
    bool base_valid_ = false;
    PlateScene base_scene_;
    Image base_;
    std::vector<Vec2> centers_;
    std::vector<double> illum_nx_;   ///< per-column gradient coordinate
    std::vector<double> illum_nx2_;  ///< per-column vignette term
    std::vector<double> noise_row_;  ///< one row's scaled sensor noise
    std::size_t base_hits_ = 0;
    std::size_t base_rebuilds_ = 0;
};

}  // namespace sdl::imaging
