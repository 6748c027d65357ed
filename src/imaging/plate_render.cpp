#include "imaging/plate_render.hpp"

#include <algorithm>
#include <cmath>

#include "imaging/draw.hpp"
#include "imaging/sensor_noise.hpp"
#include "linalg/fastmath.hpp"
#include "support/common.hpp"

namespace sdl::imaging {

namespace {

// The calibrated scene's fixed parts.
constexpr double kMarkerSidePx = 56.0;
constexpr std::size_t kMarkerId = 7;
constexpr color::Rgb8 kBackground{68, 70, 74};    ///< workcell deck
constexpr color::Rgb8 kPlateBody{206, 204, 198};  ///< plate plastic
constexpr color::Rgb8 kWellWall{38, 38, 40};      ///< rim ring of filled wells
/// Unfilled wells: translucent plastic shows nearly the plate color,
/// which is what makes HoughCircles "prone to false negatives" on
/// partially used plates (§2.4). These colors sit right at the
/// edge-detection margin so empty wells are found only sporadically —
/// the grid alignment predicts the rest.
constexpr color::Rgb8 kEmptyWell{201, 199, 194};  ///< unfilled well interior
constexpr color::Rgb8 kEmptyRim{196, 194, 189};
constexpr double kWallThickness = 0.25;  ///< ring thickness as fraction of radius

std::uint8_t shade(std::uint8_t value, double factor, double noise) noexcept {
    const double v = value * factor + noise;
    // Three roundings per pixel: the libm lround call cost used to
    // dominate the whole sensor pass. See fastmath.hpp for
    // round_half_away's (documented, tolerated) boundary behavior.
    const long q = linalg::round_half_away(v);
    return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
}

/// Pixel box [floor(c - reach), ceil(c + reach)) clipped to `bounds`,
/// from doubles clamped first so far-off-frame geometry (a glitched
/// scene's marker sits at -10000) stays in int range.
Rect reach_box(Vec2 c, double reach, Rect bounds) noexcept {
    const auto to_int = [](double v) {
        return static_cast<int>(std::clamp(v, -1e9, 1e9));
    };
    return Rect{to_int(std::floor(c.x - reach)), to_int(std::floor(c.y - reach)),
                to_int(std::ceil(c.x + reach)), to_int(std::ceil(c.y + reach))}
        .intersected(bounds);
}

}  // namespace

LazyFrame::LazyFrame(const PlateScene& scene, std::span<const color::Rgb8> well_colors,
                     std::uint64_t noise_key, const std::vector<bool>* filled)
    : scene_(scene),
      colors_(well_colors.begin(), well_colors.end()),
      noise_key_(noise_key),
      centers_(true_well_centers(scene)),
      raster_(scene.width, scene.height) {
    const SceneGeometry& g = scene.geometry;
    const auto wells = static_cast<std::size_t>(g.well_count());
    support::check(colors_.size() == wells, "well color count must equal rows*cols");
    support::check(filled == nullptr || filled->size() == wells,
                   "fill mask size must equal rows*cols");
    filled_ = filled != nullptr ? *filled : std::vector<bool>(wells, true);

    // Plate body: a quadrilateral covering the well block plus a margin.
    const double pitch = kWellSpacing * kMarkerSidePx;
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const double margin = pitch * 0.9;
    const Vec2 tl = centers_[0] - ux * margin - uy * margin;
    const Vec2 br = centers_[wells - 1] + ux * margin + uy * margin;
    body_[0] = tl;
    body_[1] = tl + ux * ((br - tl).dot(ux));
    body_[2] = br;
    body_[3] = tl + uy * ((br - tl).dot(uy));

    tiles_x_ = (width() + kTile - 1) / kTile;
    const int tiles_y = (height() + kTile - 1) / kTile;
    ready_.assign(static_cast<std::size_t>(tiles_x_ * tiles_y), 0);

    // Bucket the wells by the tiles their draw boxes meet (fill_ring's
    // box reaches at most r + 2 px past the center; r + 3 is safe). The
    // buckets keep well order, which is the per-pixel draw order.
    const double reach = kWellRadius * kMarkerSidePx + 3.0;
    tile_wells_.resize(ready_.size());
    for (std::size_t i = 0; i < wells; ++i) {
        const Rect box = reach_box(centers_[i], reach, bounds());
        if (box.empty()) continue;  // off-frame, e.g. a glitched scene
        for (int ty = box.y0 / kTile; ty <= (box.y1 - 1) / kTile; ++ty) {
            for (int tx = box.x0 / kTile; tx <= (box.x1 - 1) / kTile; ++tx) {
                tile_wells_[static_cast<std::size_t>(ty * tiles_x_ + tx)].push_back(
                    static_cast<std::uint32_t>(i));
            }
        }
    }

    // The marker card spans kMarkerCells + 2 cells, i.e. at most
    // 0.95 sides from the center at any rotation.
    marker_box_ = reach_box(scene.marker_center, kMarkerSidePx + 2.0, bounds());
}

Rect LazyFrame::tile_rect(int tx, int ty) const noexcept {
    return Rect{tx * kTile, ty * kTile, (tx + 1) * kTile, (ty + 1) * kTile}.intersected(
        bounds());
}

void LazyFrame::materialize(Rect rect) {
    const Rect r = rect.intersected(bounds());
    if (r.empty()) return;
    for (int ty = r.y0 / kTile; ty <= (r.y1 - 1) / kTile; ++ty) {
        for (int tx = r.x0 / kTile; tx <= (r.x1 - 1) / kTile; ++tx) {
            std::uint8_t& ready = ready_[static_cast<std::size_t>(ty * tiles_x_ + tx)];
            if (ready != 0) continue;
            const Rect tile = tile_rect(tx, ty);
            render_tile(tile);
            ready = 1;
            ++tiles_rendered_;
            pixels_rendered_ += static_cast<std::size_t>(tile.width()) *
                                static_cast<std::size_t>(tile.height());
        }
    }
}

std::vector<Rect> LazyFrame::rendered_tiles() const {
    std::vector<Rect> tiles;
    for (std::size_t t = 0; t < ready_.size(); ++t) {
        if (ready_[t] != 0) {
            tiles.push_back(tile_rect(static_cast<int>(t) % tiles_x_,
                                      static_cast<int>(t) / tiles_x_));
        }
    }
    return tiles;
}

void LazyFrame::render_tile(Rect tile) {
    std::uint8_t* bytes = raster_.bytes().data();
    const auto stride = static_cast<std::size_t>(width());
    const color::Rgb8 bg = kBackground;
    for (int y = tile.y0; y < tile.y1; ++y) {
        std::uint8_t* px = bytes + 3 * (static_cast<std::size_t>(y) * stride +
                                        static_cast<std::size_t>(tile.x0));
        for (int x = tile.x0; x < tile.x1; ++x, px += 3) {
            px[0] = bg.r;
            px[1] = bg.g;
            px[2] = bg.b;
        }
    }
    fill_quad(raster_, body_, kPlateBody, tile);

    // Wells: rim ring plus interior (sample color or empty plastic).
    const double radius = kWellRadius * kMarkerSidePx;
    const double inner = radius * (1.0 - kWallThickness);
    const auto t = static_cast<std::size_t>(tile.y0 / kTile * tiles_x_ + tile.x0 / kTile);
    for (const std::size_t i : tile_wells_[t]) {
        const bool has_sample = filled_[i];
        fill_ring(raster_, centers_[i], radius, inner,
                  has_sample ? kWellWall : kEmptyRim, tile);
        fill_circle(raster_, centers_[i], inner,
                    has_sample ? colors_[i] : kEmptyWell, tile);
    }

    if (!tile.intersected(marker_box_).empty()) {
        render_marker(raster_, MarkerDictionary::standard(), kMarkerId,
                      scene_.marker_center, kMarkerSidePx, scene_.angle_rad, tile);
    }
    shade_tile(tile);
}

/// Sensor model: illumination shading and Gaussian noise. Per pixel the
/// factor combines the column's gradient/vignette terms (x over the
/// frame width) with the row's, by the exact expression the scalar
/// illumination() helper used. Each sample's noise is
/// sigma · sensor_noise(key, x, y, channel); a tile row's noise counters
/// run from noise_counter(x0, y, 0) in byte order. A row's noise is
/// generated into a buffer before the row is shaded: the two loops run
/// ~10% faster apart than fused (2.1 GHz Xeon, portable build).
void LazyFrame::shade_tile(Rect tile) {
    const int tile_width = tile.width();
    double nx[kTile] = {};
    double nx2[kTile] = {};
    double noise[3 * kTile] = {};
    for (int i = 0; i < tile_width; ++i) {
        nx[i] = static_cast<double>(tile.x0 + i) / scene_.width - 0.5;
        nx2[i] = nx[i] * nx[i];
    }
    const double gx = scene_.illum_gradient.x;
    const double gy = scene_.illum_gradient.y;
    const double sigma = scene_.noise_sigma;
    const NormalTable& table = normal_table();
    std::uint8_t* bytes = raster_.bytes().data();
    const auto stride = static_cast<std::size_t>(width());
    for (int y = tile.y0; y < tile.y1; ++y) {
        const std::uint64_t row_counter = noise_counter(tile.x0, y, 0);
        for (int i = 0; i < 3 * tile_width; ++i) {
            const std::uint64_t counter = row_counter + static_cast<std::uint64_t>(i);
            noise[i] = sigma * normal_from_bits(noise_bits(noise_key_, counter), table);
        }
        const double ny = static_cast<double>(y) / scene_.height - 0.5;
        const double gy_ny = gy * ny;
        const double ny2 = ny * ny;
        std::uint8_t* row = bytes + 3 * (static_cast<std::size_t>(y) * stride +
                                         static_cast<std::size_t>(tile.x0));
        for (int x = 0; x < tile_width; ++x) {
            const double gradient = 1.0 + gx * nx[x] + gy_ny;
            const double r2 = (nx2[x] + ny2) / 0.5;  // 1.0 at frame corners
            const double factor = gradient * (1.0 - scene_.vignette * r2);
            std::uint8_t* px = row + 3 * x;
            const double* px_noise = noise + 3 * x;
            px[0] = shade(px[0], factor, px_noise[0]);
            px[1] = shade(px[1], factor, px_noise[1]);
            px[2] = shade(px[2], factor, px_noise[2]);
        }
    }
}

std::vector<Vec2> true_well_centers(const PlateScene& scene) {
    const SceneGeometry& g = scene.geometry;
    const double s = kMarkerSidePx;
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const Vec2 origin = scene.marker_center + ux * (kPlateOffset.x * s) +
                        uy * (kPlateOffset.y * s);
    std::vector<Vec2> centers;
    centers.reserve(static_cast<std::size_t>(g.well_count()));
    for (int r = 0; r < g.rows; ++r) {
        for (int c = 0; c < g.cols; ++c) {
            centers.push_back(origin + uy * (r * kWellSpacing * s) +
                              ux * (c * kWellSpacing * s));
        }
    }
    return centers;
}

MarkerDetection calibrated_marker_pose(const PlateScene& scene) {
    const double s = kMarkerSidePx;
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const Vec2 tl = scene.marker_center - ux * (s / 2) - uy * (s / 2);
    MarkerDetection pose;
    pose.id = kMarkerId;
    pose.corners = {tl, tl + ux * s, tl + ux * s + uy * s, tl + uy * s};
    pose.center = scene.marker_center;
    pose.side = s;
    pose.angle = scene.angle_rad;
    return pose;
}

PlateScene scene_for_plate(PlateScene scene, int rows, int cols) {
    scene.geometry.rows = rows;
    scene.geometry.cols = cols;
    // The calibrated scene fits an 8x12 grid; denser plates upscale the
    // raster by ceil(1/f) (f is 1/2 for 384, 1/4 for 1536, so the
    // upscale is exact) and leave the marker-relative geometry alone:
    // with the marker size unchanged, well pixel pitch and radius stay at
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
    LazyFrame frame(scene, well_colors, rng.next(), filled);
    frame.materialize(frame.bounds());
    return std::move(frame).release();
}

}  // namespace sdl::imaging
