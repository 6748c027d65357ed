#include "imaging/sensor_noise.hpp"

#include <cmath>

namespace sdl::imaging {

namespace {

/// Acklam's tail branch: Φ⁻¹(p) for small p, with q = sqrt(-2 ln p).
double lower_tail(double q) noexcept {
    constexpr double c0 = -7.784894002430293e-03;
    constexpr double c1 = -3.223964580411365e-01;
    constexpr double c2 = -2.400758277161838e+00;
    constexpr double c3 = -2.549732539343734e+00;
    constexpr double c4 = 4.374664141464968e+00;
    constexpr double c5 = 2.938163982698783e+00;
    constexpr double d0 = 7.784695709041462e-03;
    constexpr double d1 = 3.224671290700398e-01;
    constexpr double d2 = 2.445134137142996e+00;
    constexpr double d3 = 3.754408661907416e+00;
    return (((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5) /
           ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0);
}

}  // namespace

double normal_quantile(double p) noexcept {
    constexpr double kLow = 0.02425;
    if (p < kLow) return lower_tail(std::sqrt(-2.0 * std::log(p)));
    if (p > 1.0 - kLow) return -lower_tail(std::sqrt(-2.0 * std::log(1.0 - p)));
    constexpr double a0 = -3.969683028665376e+01;
    constexpr double a1 = 2.209460984245205e+02;
    constexpr double a2 = -2.759285104469687e+02;
    constexpr double a3 = 1.383577518672690e+02;
    constexpr double a4 = -3.066479806614716e+01;
    constexpr double a5 = 2.506628277459239e+00;
    constexpr double b0 = -5.447609879822406e+01;
    constexpr double b1 = 1.615858368580409e+02;
    constexpr double b2 = -1.556989798598866e+02;
    constexpr double b3 = 6.680131188771972e+01;
    constexpr double b4 = -1.328068155288572e+01;
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5) * q /
           (((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0);
}

const NormalTable& normal_table() {
    static const NormalTable table = [] {
        NormalTable t{};
        for (std::size_t i = 0; i < t.size(); ++i) {
            t[i] = normal_quantile(0.5 + static_cast<double>(i) / (2.0 * kNormalCells));
        }
        return t;
    }();
    return table;
}

}  // namespace sdl::imaging
