// RGB color types and the sRGB transfer function.
//
// Two representations are kept distinct on purpose:
//  * Rgb8      — gamma-encoded 8-bit sRGB, what the camera reports and what
//                the paper's Figure 4 measures distances in;
//  * LinearRgb — linear-light doubles in [0,1], what physics (Beer–Lambert
//                transmittance) and rendering math operate on.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace sdl::color {

struct Rgb8 {
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;

    friend constexpr bool operator==(Rgb8 a, Rgb8 b) noexcept = default;

    /// "rgb(120,120,120)" — used in portal records and reports.
    [[nodiscard]] std::string str() const;
};

struct LinearRgb {
    double r = 0.0;
    double g = 0.0;
    double b = 0.0;

    friend constexpr LinearRgb operator*(LinearRgb c, double k) noexcept {
        return {c.r * k, c.g * k, c.b * k};
    }
    friend constexpr LinearRgb operator*(double k, LinearRgb c) noexcept { return c * k; }
    friend constexpr LinearRgb operator+(LinearRgb a, LinearRgb b) noexcept {
        return {a.r + b.r, a.g + b.g, a.b + b.b};
    }

    [[nodiscard]] constexpr LinearRgb clamped() const noexcept {
        auto cl = [](double x) { return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x); };
        return {cl(r), cl(g), cl(b)};
    }
};

/// sRGB electro-optical transfer function for one channel in [0,1].
[[nodiscard]] double srgb_to_linear(double encoded) noexcept;
/// Inverse transfer function for one channel in [0,1].
[[nodiscard]] double linear_to_srgb(double linear) noexcept;

[[nodiscard]] LinearRgb to_linear(Rgb8 c) noexcept;
[[nodiscard]] Rgb8 to_srgb8(LinearRgb c) noexcept;

/// Euclidean distance in 8-bit sRGB space — the paper's Figure-4 score
/// ("Euclidean distance in three-dimensional color space").
[[nodiscard]] double rgb_distance(Rgb8 a, Rgb8 b) noexcept;

}  // namespace sdl::color
