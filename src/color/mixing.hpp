// Subtractive color mixing via Beer–Lambert attenuation.
//
// A well containing a dye mixture transmits backlight per channel:
//   T_ch = exp(-L * Σ_i c_i * ε_i,ch)
// where c_i is the volume fraction of dye i, ε its absorptivity, and L the
// optical path length. Because concentrations are volume *fractions*, the
// perceived color depends only on the mixing ratios — matching the paper,
// whose genetic algorithm mutates "ratios". The model is the simulated
// replacement for physical chemistry; the optimization landscape it
// induces (smooth, monotone darkening, channel-selective) is what the
// solvers actually see in the lab.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "color/dye.hpp"
#include "color/rgb.hpp"
#include "support/units.hpp"

namespace sdl::color {

class BeerLambertMixer {
public:
    /// Mixes the kCmyk dyes. `path_length` scales all optical densities
    /// (well depth, in dimensionless units; 1.0 matches the calibrated
    /// absorptivities).
    explicit BeerLambertMixer(double path_length = 1.0);

    /// Transmittance for volume fractions `fractions`, one per dye (must
    /// sum to <= 1+ε; they are renormalized internally so callers may pass
    /// raw ratios).
    /// An all-zero vector means an empty well: full transmission (white).
    [[nodiscard]] LinearRgb transmittance(std::span<const double> fractions) const;

    /// Mixes dye volumes and returns the true (noise-free) well color as
    /// seen over the white backlight.
    [[nodiscard]] Rgb8 mix(std::span<const support::Volume> volumes) const;

    /// Ratio-vector convenience overload.
    [[nodiscard]] Rgb8 mix_ratios(std::span<const double> ratios) const;

    /// Analytic inverse (§2.5 notes the problem "admits to an analytic
    /// solution"): returns mixing ratios (summing to 1) that exactly
    /// produce `target`, or nullopt when the target is outside the
    /// achievable gamut. Used by tests and by the oracle baseline solver.
    [[nodiscard]] std::optional<std::vector<double>> invert_target(Rgb8 target) const;

private:
    double path_length_;
};

}  // namespace sdl::color
