// CIE XYZ / L*a*b* conversions and the ΔE color-difference family.
//
// The paper's solver grades are "delta e distance" (§2.5) while Figure 4
// plots plain RGB Euclidean distance; sdlbench implements both so either
// can be selected as the experiment's objective. ΔE2000 follows the
// Sharma/Wu/Dalal reference formulation.
#pragma once

#include "color/rgb.hpp"

namespace sdl::color {

struct Xyz {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
};

struct Lab {
    double l = 0.0;
    double a = 0.0;
    double b = 0.0;
};

/// Linear sRGB (D65) -> CIE XYZ, Y in [0,1].
[[nodiscard]] Xyz to_xyz(LinearRgb c) noexcept;
/// CIE XYZ -> linear sRGB (may fall outside [0,1] for out-of-gamut colors).
[[nodiscard]] LinearRgb xyz_to_linear(Xyz c) noexcept;

/// XYZ -> L*a*b* with the D65 reference white.
[[nodiscard]] Lab xyz_to_lab(Xyz c) noexcept;

/// Convenience: 8-bit sRGB -> Lab.
[[nodiscard]] Lab to_lab(Rgb8 c) noexcept;

/// CIE76: Euclidean distance in Lab.
[[nodiscard]] double delta_e76(const Lab& a, const Lab& b) noexcept;

/// CIEDE2000 with unit parametric factors.
[[nodiscard]] double delta_e2000(const Lab& a, const Lab& b) noexcept;

}  // namespace sdl::color
