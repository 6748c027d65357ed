// 2-D geometry primitives shared across the vision pipeline.
#pragma once

#include <cmath>
#include <limits>

namespace sdl::imaging {

struct Vec2 {
    double x = 0.0;
    double y = 0.0;

    friend constexpr Vec2 operator+(Vec2 a, Vec2 b) noexcept { return {a.x + b.x, a.y + b.y}; }
    friend constexpr Vec2 operator-(Vec2 a, Vec2 b) noexcept { return {a.x - b.x, a.y - b.y}; }
    friend constexpr Vec2 operator*(Vec2 a, double k) noexcept { return {a.x * k, a.y * k}; }
    friend constexpr Vec2 operator*(double k, Vec2 a) noexcept { return a * k; }

    [[nodiscard]] double norm() const noexcept { return std::hypot(x, y); }
    [[nodiscard]] constexpr double dot(Vec2 other) const noexcept {
        return x * other.x + y * other.y;
    }
    /// z-component of the 3-D cross product (signed parallelogram area).
    [[nodiscard]] constexpr double cross(Vec2 other) const noexcept {
        return x * other.y - y * other.x;
    }
    /// Counter-clockwise rotation by `radians` (y-down image coordinates
    /// make this appear clockwise on screen).
    [[nodiscard]] Vec2 rotated(double radians) const noexcept {
        const double c = std::cos(radians);
        const double s = std::sin(radians);
        return {x * c - y * s, x * s + y * c};
    }
};

[[nodiscard]] inline double distance(Vec2 a, Vec2 b) noexcept { return (a - b).norm(); }

/// Axis-aligned rectangle [x0,x1) x [y0,y1) in pixel coordinates.
struct Rect {
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;

    [[nodiscard]] constexpr int width() const noexcept { return x1 - x0; }
    [[nodiscard]] constexpr int height() const noexcept { return y1 - y0; }
    [[nodiscard]] constexpr bool contains(int x, int y) const noexcept {
        return x >= x0 && x < x1 && y >= y0 && y < y1;
    }
    [[nodiscard]] constexpr bool empty() const noexcept { return x1 <= x0 || y1 <= y0; }
    /// The overlap with `other`; empty (x1 == x0 or y1 == y0) when the
    /// two do not meet.
    [[nodiscard]] constexpr Rect intersected(Rect other) const noexcept {
        Rect r = *this;
        if (r.x0 < other.x0) r.x0 = other.x0;
        if (r.y0 < other.y0) r.y0 = other.y0;
        if (r.x1 > other.x1) r.x1 = other.x1;
        if (r.y1 > other.y1) r.y1 = other.y1;
        if (r.x1 < r.x0) r.x1 = r.x0;
        if (r.y1 < r.y0) r.y1 = r.y0;
        return r;
    }
    [[nodiscard]] constexpr Rect clipped(int w, int h) const noexcept {
        return intersected({0, 0, w, h});
    }
};

/// Every pixel an image can have: as a clip rect it leaves a draw op
/// bounded by its image alone.
inline constexpr Rect kNoClip{0, 0, std::numeric_limits<int>::max(),
                              std::numeric_limits<int>::max()};

}  // namespace sdl::imaging
