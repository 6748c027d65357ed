#include "color/mixing.hpp"

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "support/common.hpp"

namespace sdl::color {

BeerLambertMixer::BeerLambertMixer(double path_length) : path_length_(path_length) {
    support::check(path_length > 0.0, "path length must be positive");
}

LinearRgb BeerLambertMixer::transmittance(std::span<const double> fractions) const {
    support::check(fractions.size() == kDyes, "fraction count must match dye count");
    double total = 0.0;
    for (const double f : fractions) {
        support::check(f >= 0.0, "negative dye fraction");
        total += f;
    }
    if (total <= 0.0) return {1.0, 1.0, 1.0};  // empty well -> clear

    std::array<double, 3> od{0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        const double c = fractions[i] / total;
        const auto& eps = kCmyk[i].absorptivity;
        od[0] += c * eps[0];
        od[1] += c * eps[1];
        od[2] += c * eps[2];
    }
    return {std::exp(-path_length_ * od[0]), std::exp(-path_length_ * od[1]),
            std::exp(-path_length_ * od[2])};
}

Rgb8 BeerLambertMixer::mix(std::span<const support::Volume> volumes) const {
    std::vector<double> fractions(volumes.size());
    for (std::size_t i = 0; i < volumes.size(); ++i) {
        fractions[i] = volumes[i].to_microliters();
    }
    return mix_ratios(fractions);
}

Rgb8 BeerLambertMixer::mix_ratios(std::span<const double> ratios) const {
    return to_srgb8(transmittance(ratios));
}

std::optional<std::vector<double>> BeerLambertMixer::invert_target(Rgb8 target) const {
    // Required optical densities per channel.
    const LinearRgb lin = to_linear(target);
    if (lin.r <= 0.0 || lin.g <= 0.0 || lin.b <= 0.0) return std::nullopt;
    const std::array<double, 3> od{-std::log(lin.r) / path_length_,
                                   -std::log(lin.g) / path_length_,
                                   -std::log(lin.b) / path_length_};

    // Solve: Σ c_i ε_i,ch = od_ch (3 equations) and Σ c_i = 1.
    static_assert(kDyes == 4, "3 channel rows + the sum row must be square");
    linalg::Matrix a(kDyes, kDyes);
    linalg::Vec b(kDyes);
    for (std::size_t ch = 0; ch < 3; ++ch) {
        for (std::size_t i = 0; i < kDyes; ++i) a(ch, i) = kCmyk[i].absorptivity[ch];
        b[ch] = od[ch];
    }
    for (std::size_t i = 0; i < kDyes; ++i) a(3, i) = 1.0;
    b[3] = 1.0;

    // The system is small and generally well conditioned; solve the
    // normal equations with jitter for robustness.
    const linalg::Matrix at = a.transposed();
    linalg::Matrix ata = at * a;
    const linalg::Vec atb = at * b;
    linalg::Vec c;
    try {
        c = linalg::cholesky_with_jitter(std::move(ata)).solve(atb);
    } catch (const support::Error&) {
        return std::nullopt;
    }

    // Validate: physical (non-negative) and actually achieving the target.
    for (double& ci : c) {
        if (ci < 0.0) {
            if (ci < -1e-6) return std::nullopt;  // genuinely infeasible
            ci = 0.0;
        }
    }
    const Rgb8 produced = mix_ratios(c);
    if (rgb_distance(produced, target) > 1.0) return std::nullopt;
    return c;
}

}  // namespace sdl::color
