#include "imaging/plate_render.hpp"

#include <algorithm>
#include <cmath>

#include "imaging/draw.hpp"
#include "imaging/sensor_noise.hpp"
#include "linalg/fastmath.hpp"
#include "support/common.hpp"

namespace sdl::imaging {

namespace {

std::uint8_t shade(std::uint8_t value, double factor, double noise) noexcept {
    const double v = value * factor + noise;
    // Three roundings per pixel: the libm lround call cost used to
    // dominate the whole sensor pass. See fastmath.hpp for
    // round_half_away's (documented, tolerated) boundary behavior.
    const long q = linalg::round_half_away(v);
    return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
}

void validate_inputs(const PlateScene& scene, std::span<const color::Rgb8> well_colors,
                     const std::vector<bool>* filled) {
    const SceneGeometry& g = scene.geometry;
    support::check(well_colors.size() == static_cast<std::size_t>(g.well_count()),
                   "well color count must equal rows*cols");
    support::check(filled == nullptr ||
                       filled->size() == static_cast<std::size_t>(g.well_count()),
                   "fill mask size must equal rows*cols");
}

/// The scene-only raster: deck background plus plate body. Everything
/// here is deterministic in the scene, which is what makes it cacheable
/// across frames.
Image render_base(const PlateScene& scene, const std::vector<Vec2>& centers) {
    const SceneGeometry& g = scene.geometry;
    Image img(scene.width, scene.height, scene.background);
    const double pitch = g.spacing * scene.marker_side_px;

    // Plate body: a quadrilateral covering the well block plus a margin.
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const double margin = pitch * 0.9;
    const Vec2 tl = centers[0] - ux * margin - uy * margin;
    const Vec2 br = centers[static_cast<std::size_t>(g.well_count() - 1)] + ux * margin +
                    uy * margin;
    const Vec2 tr = tl + ux * ((br - tl).dot(ux));
    const Vec2 bl = tl + uy * ((br - tl).dot(uy));
    const Vec2 corners[4] = {tl, tr, br, bl};
    fill_quad(img, corners, scene.plate_body);
    return img;
}

/// Wells: rim ring plus interior (sample color or empty plastic).
void draw_wells(Image& img, const PlateScene& scene, const std::vector<Vec2>& centers,
                std::span<const color::Rgb8> well_colors, const std::vector<bool>* filled) {
    const SceneGeometry& g = scene.geometry;
    const double radius = g.well_radius * scene.marker_side_px;
    for (int i = 0; i < g.well_count(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const bool has_sample = filled == nullptr || (*filled)[idx];
        const Vec2 c = centers[idx];
        fill_ring(img, c, radius, radius * (1.0 - scene.wall_thickness),
                  has_sample ? scene.well_wall : scene.empty_rim);
        const color::Rgb8 interior = has_sample ? well_colors[idx] : scene.empty_well;
        fill_circle(img, c, radius * (1.0 - scene.wall_thickness), interior);
    }
}

/// Sensor model: illumination shading and Gaussian noise. The per-column
/// gradient/vignette terms are precomputed once per frame; per pixel the
/// factor combines them with the exact expression the scalar
/// illumination() helper used, so the shading bits are unchanged. Each
/// sample's noise is sigma · sensor_noise(key, x, y, channel). A row's
/// noise is generated into `noise` before the row is shaded: the two
/// loops run ~10% faster apart than fused (2.1 GHz Xeon, portable build).
void apply_sensor_model(Image& img, const PlateScene& scene, std::uint64_t key,
                        std::vector<double>& nx, std::vector<double>& nx2,
                        std::vector<double>& noise) {
    const auto width = static_cast<std::size_t>(scene.width);
    nx.resize(width);
    nx2.resize(width);
    noise.resize(3 * width);
    for (std::size_t x = 0; x < width; ++x) {
        nx[x] = static_cast<double>(x) / scene.width - 0.5;
        nx2[x] = nx[x] * nx[x];
    }
    const double gx = scene.illum_gradient.x;
    const double gy = scene.illum_gradient.y;
    const double sigma = scene.noise_sigma;
    const NormalTable& table = normal_table();
    std::uint8_t* bytes = img.bytes().data();
    for (int y = 0; y < scene.height; ++y) {
        // Counters run 3·x + channel along the row, in byte order.
        const std::uint64_t row_counter = noise_counter(0, y, 0);
        for (std::size_t i = 0; i < 3 * width; ++i) {
            noise[i] = sigma * normal_from_bits(noise_bits(key, row_counter + i), table);
        }
        const double ny = static_cast<double>(y) / scene.height - 0.5;
        const double gy_ny = gy * ny;
        const double ny2 = ny * ny;
        std::uint8_t* row = bytes + 3 * static_cast<std::size_t>(y) * width;
        for (std::size_t x = 0; x < width; ++x) {
            const double gradient = 1.0 + gx * nx[x] + gy_ny;
            const double r2 = (nx2[x] + ny2) / 0.5;  // 1.0 at frame corners
            const double factor = gradient * (1.0 - scene.vignette * r2);
            std::uint8_t* px = row + 3 * x;
            const double* px_noise = noise.data() + 3 * x;
            px[0] = shade(px[0], factor, px_noise[0]);
            px[1] = shade(px[1], factor, px_noise[1]);
            px[2] = shade(px[2], factor, px_noise[2]);
        }
    }
}

}  // namespace

std::vector<Vec2> true_well_centers(const PlateScene& scene) {
    const SceneGeometry& g = scene.geometry;
    const double s = scene.marker_side_px;
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const Vec2 origin = scene.marker_center + ux * (g.plate_offset.x * s) +
                        uy * (g.plate_offset.y * s);
    std::vector<Vec2> centers;
    centers.reserve(static_cast<std::size_t>(g.well_count()));
    for (int r = 0; r < g.rows; ++r) {
        for (int c = 0; c < g.cols; ++c) {
            centers.push_back(origin + uy * (r * g.spacing * s) + ux * (c * g.spacing * s));
        }
    }
    return centers;
}

bool same_scene(const PlateScene& a, const PlateScene& b) noexcept {
    return a == b;  // defaulted memberwise equality — cannot drift
}

PlateScene scene_for_plate(PlateScene scene, int rows, int cols) {
    scene.geometry.rows = rows;
    scene.geometry.cols = cols;
    // The calibrated scene fits an 8x12 grid; denser plates upscale the
    // raster by ceil(1/f) (f is 1/2 for 384, 1/4 for 1536, so the
    // upscale is exact) and leave the marker-relative geometry alone:
    // with marker_side_px unchanged, well pixel pitch and radius stay at
    // the 96-well values the vision pipeline is calibrated for, and the
    // marker itself stays inside the detector's scale envelope (a 4x
    // marker would outgrow the adaptive-threshold window and vanish).
    const double f = std::min(12.0 / std::max(cols, 1), 8.0 / std::max(rows, 1));
    if (f >= 1.0) {
        return scene;
    }
    const double up = std::ceil(1.0 / f);
    scene.width = static_cast<int>(scene.width * up);
    scene.height = static_cast<int>(scene.height * up);
    scene.marker_center = scene.marker_center * up;
    return scene;
}

Image render_plate(const PlateScene& scene, std::span<const color::Rgb8> well_colors,
                   support::Rng& rng, const std::vector<bool>* filled) {
    validate_inputs(scene, well_colors, filled);
    const std::vector<Vec2> centers = true_well_centers(scene);
    Image img = render_base(scene, centers);
    draw_wells(img, scene, centers, well_colors, filled);
    render_marker(img, MarkerDictionary::standard(), scene.marker_id, scene.marker_center,
                  scene.marker_side_px, scene.angle_rad);
    std::vector<double> nx;
    std::vector<double> nx2;
    std::vector<double> noise;
    apply_sensor_model(img, scene, rng.next(), nx, nx2, noise);
    return img;
}

Image PlateRenderer::render(const PlateScene& scene,
                            std::span<const color::Rgb8> well_colors, support::Rng& rng,
                            const std::vector<bool>* filled) {
    validate_inputs(scene, well_colors, filled);
    if (!base_valid_ || !same_scene(scene, base_scene_)) {
        centers_ = true_well_centers(scene);
        base_ = render_base(scene, centers_);
        base_scene_ = scene;
        base_valid_ = true;
        ++base_rebuilds_;
    } else {
        ++base_hits_;
    }
    Image img = base_;
    draw_wells(img, scene, centers_, well_colors, filled);
    render_marker(img, MarkerDictionary::standard(), scene.marker_id, scene.marker_center,
                  scene.marker_side_px, scene.angle_rad);
    apply_sensor_model(img, scene, rng.next(), illum_nx_, illum_nx2_, noise_row_);
    return img;
}

}  // namespace sdl::imaging
