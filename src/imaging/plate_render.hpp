// Synthetic camera: renders the microplate scene the webcam would see.
//
// This is the substitute for the physical Logitech camera + ring light:
// a 96-well microplate next to a fiducial marker, with realistic
// nuisances — sensor noise, vignetting, an illumination gradient, well
// wall rings, and empty wells that produce the low-contrast circles that
// HoughCircles tends to miss (the false negatives §2.4's grid alignment
// rescues).
//
// A frame is its recipe (scene, well colors, fill mask, noise key) plus
// a raster rendered on demand, one tile at a time (LazyFrame): the
// camera holds its last capture as a recipe and the §2.4 reader renders
// only the regions it reads. render_plate is one such frame rendered
// whole.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "imaging/fiducial.hpp"
#include "imaging/geometry.hpp"
#include "imaging/image.hpp"
#include "support/random.hpp"

namespace sdl::imaging {

// The plate's layout relative to the fiducial, in units of the marker's
// side length, so the reader can recover everything from the detected
// marker alone (as the paper's pipeline does). The camera mount places
// the plate the same way every time (§2.2), so renderer and reader share
// one calibration.

/// Well pitch in marker-side units.
inline constexpr double kWellSpacing = 0.62;
/// Well radius in marker-side units.
inline constexpr double kWellRadius = 0.24;
/// Marker center -> well(0,0) center, in the marker's canonical frame.
inline constexpr Vec2 kPlateOffset{1.45, -2.17};

/// The plate format the reader expects.
struct SceneGeometry {
    int rows = 8;
    int cols = 12;

    [[nodiscard]] int well_count() const noexcept { return rows * cols; }
};

/// What varies between frames: the plate format, the frame size and
/// marker position (scene_for_plate's upscale, a glitched capture), the
/// scene rotation, and the sensor model (the illumination gradient
/// drifts). The marker's id and size, the deck, plate and well colors and
/// the well-wall thickness are constants of the renderer.
struct PlateScene {
    int width = 800;
    int height = 600;
    SceneGeometry geometry;

    Vec2 marker_center{110.0, 300.0};
    double angle_rad = 0.0;  ///< scene rotation (plate + marker together)

    double noise_sigma = 2.0;          ///< Gaussian sensor noise, 8-bit units
    double vignette = 0.10;            ///< corner darkening strength
    Vec2 illum_gradient{0.04, -0.03};  ///< linear shading across the frame
};

/// A camera frame kept as its recipe — scene, well colors, fill mask and
/// noise key — plus a raster rendered on demand in kTile x kTile tiles,
/// with a mask of the tiles filled so far. Every pixel is a pure function
/// of the recipe and (x, y): the draw ops work per pixel, and sensor
/// noise is counter-based (imaging/sensor_noise.hpp). A tile runs the
/// whole-frame op sequence clipped to itself — background, plate body,
/// each well meeting it (ring, then interior), marker, then shading and
/// noise — so a materialized region holds exactly the bytes a whole-frame
/// render has there, whatever order its tiles were filled in.
/// Move-only: a 1536-well raster is 23 MB.
class LazyFrame {
public:
    static constexpr int kTile = 64;

    /// `well_colors` has rows*cols entries in row-major order; `filled`
    /// marks which wells contain liquid (nullptr = all). Renders nothing.
    LazyFrame(const PlateScene& scene, std::span<const color::Rgb8> well_colors,
              std::uint64_t noise_key, const std::vector<bool>* filled = nullptr);

    LazyFrame(LazyFrame&&) noexcept = default;
    LazyFrame& operator=(LazyFrame&&) noexcept = default;
    LazyFrame(const LazyFrame&) = delete;
    LazyFrame& operator=(const LazyFrame&) = delete;

    [[nodiscard]] int width() const noexcept { return raster_.width(); }
    [[nodiscard]] int height() const noexcept { return raster_.height(); }
    [[nodiscard]] Rect bounds() const noexcept { return {0, 0, width(), height()}; }

    /// Renders every missing tile that meets `rect` (clipped to the frame).
    void materialize(Rect rect);

    /// The raster. Pixels of tiles not yet materialized read as zero.
    [[nodiscard]] const Image& image() const noexcept { return raster_; }
    /// Moves the raster out.
    [[nodiscard]] Image release() && noexcept { return std::move(raster_); }

    [[nodiscard]] std::size_t tile_count() const noexcept { return ready_.size(); }
    [[nodiscard]] std::size_t tiles_rendered() const noexcept { return tiles_rendered_; }
    [[nodiscard]] std::size_t pixels_rendered() const noexcept {
        return pixels_rendered_;
    }
    /// The tiles materialized so far, in row-major tile order.
    [[nodiscard]] std::vector<Rect> rendered_tiles() const;

private:
    [[nodiscard]] Rect tile_rect(int tx, int ty) const noexcept;
    void render_tile(Rect tile);
    void shade_tile(Rect tile);

    PlateScene scene_;
    std::vector<color::Rgb8> colors_;
    std::vector<bool> filled_;  ///< rows*cols; true where a well holds liquid
    std::uint64_t noise_key_ = 0;
    std::vector<Vec2> centers_;
    Vec2 body_[4];  ///< plate body corners
    /// Per tile, row-major: the wells whose draw box meets it, in well
    /// order.
    std::vector<std::vector<std::uint32_t>> tile_wells_;
    Rect marker_box_;  ///< holds every pixel render_marker draws
    Image raster_;
    int tiles_x_ = 0;
    std::vector<std::uint8_t> ready_;  ///< per tile, row-major: 1 once rendered
    std::size_t tiles_rendered_ = 0;
    std::size_t pixels_rendered_ = 0;
};

/// Renders the whole scene: one LazyFrame, materialized whole. The render
/// draws exactly one value from `rng` at any frame size: the frame's
/// noise key.
[[nodiscard]] Image render_plate(const PlateScene& scene,
                                 std::span<const color::Rgb8> well_colors,
                                 support::Rng& rng,
                                 const std::vector<bool>* filled = nullptr);

/// Ground-truth well-center positions for a scene (for tests/metrics).
[[nodiscard]] std::vector<Vec2> true_well_centers(const PlateScene& scene);

/// The fiducial's pose as the scene places it: the black square's
/// corners (clockwise on screen from its top-left), center, side and
/// angle. The camera mount holds the plate in the same place every time
/// (§2.2), so this is the pose a lab calibrates once; PlateReader takes
/// it as its first marker hint.
[[nodiscard]] MarkerDetection calibrated_marker_pose(const PlateScene& scene);

/// Adapts a scene to a plate format. Up to the calibrated 8x12 the scene
/// passes through with only rows/cols set. Denser formats (384-, 1536-
/// well) scale the frame size and the marker center by the integer factor
/// that fits the larger grid; the marker size and the well pitch stay, so
/// each well keeps its 96-well *pixel* size and the Hough radius band and
/// the §2.4 marker-relative geometry keep working unchanged.
[[nodiscard]] PlateScene scene_for_plate(PlateScene scene, int rows, int cols);

}  // namespace sdl::imaging
