#include "imaging/draw.hpp"

#include <algorithm>
#include <cmath>

namespace sdl::imaging {

namespace {

color::Rgb8 blend(color::Rgb8 under, color::Rgb8 over, double alpha) noexcept {
    auto mix = [alpha](std::uint8_t u, std::uint8_t o) {
        const double v = u * (1.0 - alpha) + o * alpha;
        return static_cast<std::uint8_t>(std::lround(v));
    };
    return {mix(under.r, over.r), mix(under.g, over.g), mix(under.b, over.b)};
}

/// Fraction of the 2x2 subsample grid of pixel (x, y) inside the disk.
double disk_coverage(int x, int y, Vec2 c, double r) noexcept {
    static constexpr double offsets[2] = {0.25, 0.75};
    int inside = 0;
    for (const double oy : offsets) {
        for (const double ox : offsets) {
            const double dx = x + ox - c.x;
            const double dy = y + oy - c.y;
            if (dx * dx + dy * dy <= r * r) ++inside;
        }
    }
    return inside / 4.0;
}

}  // namespace

void fill_rect(Image& img, Rect rect, color::Rgb8 c) {
    const Rect r = rect.clipped(img.width(), img.height());
    for (int y = r.y0; y < r.y1; ++y) {
        for (int x = r.x0; x < r.x1; ++x) {
            img.set_pixel(x, y, c);
        }
    }
}

void fill_circle(Image& img, Vec2 center, double radius, color::Rgb8 c, Rect clip) {
    const Rect box = Rect{static_cast<int>(std::floor(center.x - radius)) - 1,
                          static_cast<int>(std::floor(center.y - radius)) - 1,
                          static_cast<int>(std::ceil(center.x + radius)) + 2,
                          static_cast<int>(std::ceil(center.y + radius)) + 2}
                         .intersected(clip)
                         .clipped(img.width(), img.height());
    for (int y = box.y0; y < box.y1; ++y) {
        for (int x = box.x0; x < box.x1; ++x) {
            const double cov = disk_coverage(x, y, center, radius);
            if (cov <= 0.0) continue;
            img.set_pixel(x, y, cov >= 1.0 ? c : blend(img.pixel(x, y), c, cov));
        }
    }
}

void fill_ring(Image& img, Vec2 center, double r_outer, double r_inner, color::Rgb8 c,
               Rect clip) {
    const Rect box = Rect{static_cast<int>(std::floor(center.x - r_outer)) - 1,
                          static_cast<int>(std::floor(center.y - r_outer)) - 1,
                          static_cast<int>(std::ceil(center.x + r_outer)) + 2,
                          static_cast<int>(std::ceil(center.y + r_outer)) + 2}
                         .intersected(clip)
                         .clipped(img.width(), img.height());
    for (int y = box.y0; y < box.y1; ++y) {
        for (int x = box.x0; x < box.x1; ++x) {
            const double cov =
                disk_coverage(x, y, center, r_outer) - disk_coverage(x, y, center, r_inner);
            if (cov <= 0.0) continue;
            img.set_pixel(x, y, cov >= 1.0 ? c : blend(img.pixel(x, y), c, cov));
        }
    }
}

void fill_quad(Image& img, const Vec2 (&corners)[4], color::Rgb8 c, Rect clip) {
    double min_x = corners[0].x, max_x = corners[0].x;
    double min_y = corners[0].y, max_y = corners[0].y;
    for (const Vec2& p : corners) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
    }
    const Rect box = Rect{static_cast<int>(std::floor(min_x)), static_cast<int>(std::floor(min_y)),
                          static_cast<int>(std::ceil(max_x)) + 1,
                          static_cast<int>(std::ceil(max_y)) + 1}
                         .intersected(clip)
                         .clipped(img.width(), img.height());
    if (box.empty()) return;

    // Determine consistent winding from the polygon's signed area.
    double area = 0.0;
    for (int i = 0; i < 4; ++i) {
        area += corners[i].cross(corners[(i + 1) % 4]);
    }
    const double sign = area >= 0.0 ? 1.0 : -1.0;

    for (int y = box.y0; y < box.y1; ++y) {
        for (int x = box.x0; x < box.x1; ++x) {
            const Vec2 p{x + 0.5, y + 0.5};
            bool inside = true;
            for (int i = 0; i < 4; ++i) {
                const Vec2 a = corners[i];
                const Vec2 b = corners[(i + 1) % 4];
                if (sign * (b - a).cross(p - a) < 0.0) {
                    inside = false;
                    break;
                }
            }
            if (inside) img.set_pixel(x, y, c);
        }
    }
}

void draw_circle(Image& img, Vec2 center, double radius, color::Rgb8 c) {
    const int steps = std::max(16, static_cast<int>(radius * 8));
    for (int i = 0; i < steps; ++i) {
        const double t = 2.0 * 3.14159265358979323846 * i / steps;
        const int x = static_cast<int>(std::lround(center.x + radius * std::cos(t)));
        const int y = static_cast<int>(std::lround(center.y + radius * std::sin(t)));
        if (img.in_bounds(x, y)) img.set_pixel(x, y, c);
    }
}

}  // namespace sdl::imaging
