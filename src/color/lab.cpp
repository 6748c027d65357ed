#include "color/lab.hpp"

#include <cmath>
#include <numbers>

namespace sdl::color {

namespace {
// D65 reference white (2° observer), normalized to Y = 1.
constexpr double kXn = 0.95047;
constexpr double kYn = 1.00000;
constexpr double kZn = 1.08883;

constexpr double kEpsilon = 216.0 / 24389.0;  // (6/29)^3
constexpr double kKappa = 24389.0 / 27.0;     // (29/3)^3

double lab_f(double t) noexcept {
    if (t > kEpsilon) return std::cbrt(t);
    return (kKappa * t + 16.0) / 116.0;
}

constexpr double deg2rad(double d) noexcept { return d * std::numbers::pi / 180.0; }
}  // namespace

Xyz to_xyz(LinearRgb c) noexcept {
    // sRGB primaries, D65 white point (IEC 61966-2-1).
    return {0.4124564 * c.r + 0.3575761 * c.g + 0.1804375 * c.b,
            0.2126729 * c.r + 0.7151522 * c.g + 0.0721750 * c.b,
            0.0193339 * c.r + 0.1191920 * c.g + 0.9503041 * c.b};
}

LinearRgb xyz_to_linear(Xyz c) noexcept {
    return {3.2404542 * c.x - 1.5371385 * c.y - 0.4985314 * c.z,
            -0.9692660 * c.x + 1.8760108 * c.y + 0.0415560 * c.z,
            0.0556434 * c.x - 0.2040259 * c.y + 1.0572252 * c.z};
}

Lab xyz_to_lab(Xyz c) noexcept {
    const double fx = lab_f(c.x / kXn);
    const double fy = lab_f(c.y / kYn);
    const double fz = lab_f(c.z / kZn);
    return {116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)};
}

Lab to_lab(Rgb8 c) noexcept { return xyz_to_lab(to_xyz(to_linear(c))); }

double delta_e76(const Lab& a, const Lab& b) noexcept {
    const double dl = a.l - b.l;
    const double da = a.a - b.a;
    const double db = a.b - b.b;
    return std::sqrt(dl * dl + da * da + db * db);
}

double delta_e2000(const Lab& lab1, const Lab& lab2) noexcept {
    // Sharma, Wu & Dalal, "The CIEDE2000 color-difference formula:
    // implementation notes" (2005). Variable names follow the paper.
    const double c1 = std::hypot(lab1.a, lab1.b);
    const double c2 = std::hypot(lab2.a, lab2.b);
    const double c_bar = 0.5 * (c1 + c2);
    const double c_bar7 = std::pow(c_bar, 7.0);
    const double g = 0.5 * (1.0 - std::sqrt(c_bar7 / (c_bar7 + std::pow(25.0, 7.0))));

    const double a1p = (1.0 + g) * lab1.a;
    const double a2p = (1.0 + g) * lab2.a;
    const double c1p = std::hypot(a1p, lab1.b);
    const double c2p = std::hypot(a2p, lab2.b);

    auto hue_deg = [](double a, double b) noexcept {
        if (a == 0.0 && b == 0.0) return 0.0;
        double h = std::atan2(b, a) * 180.0 / std::numbers::pi;
        if (h < 0.0) h += 360.0;
        return h;
    };
    const double h1p = hue_deg(a1p, lab1.b);
    const double h2p = hue_deg(a2p, lab2.b);

    const double dlp = lab2.l - lab1.l;
    const double dcp = c2p - c1p;

    double dhp_deg = 0.0;
    if (c1p * c2p != 0.0) {
        dhp_deg = h2p - h1p;
        if (dhp_deg > 180.0) dhp_deg -= 360.0;
        else if (dhp_deg < -180.0) dhp_deg += 360.0;
    }
    const double dhp = 2.0 * std::sqrt(c1p * c2p) * std::sin(deg2rad(dhp_deg) / 2.0);

    const double l_bar = 0.5 * (lab1.l + lab2.l);
    const double cp_bar = 0.5 * (c1p + c2p);

    double hp_bar;
    if (c1p * c2p == 0.0) {
        hp_bar = h1p + h2p;
    } else {
        const double sum = h1p + h2p;
        const double diff = std::fabs(h1p - h2p);
        if (diff <= 180.0) hp_bar = 0.5 * sum;
        else if (sum < 360.0) hp_bar = 0.5 * (sum + 360.0);
        else hp_bar = 0.5 * (sum - 360.0);
    }

    const double t = 1.0 - 0.17 * std::cos(deg2rad(hp_bar - 30.0)) +
                     0.24 * std::cos(deg2rad(2.0 * hp_bar)) +
                     0.32 * std::cos(deg2rad(3.0 * hp_bar + 6.0)) -
                     0.20 * std::cos(deg2rad(4.0 * hp_bar - 63.0));

    const double d_theta = 30.0 * std::exp(-((hp_bar - 275.0) / 25.0) * ((hp_bar - 275.0) / 25.0));
    const double cp_bar7 = std::pow(cp_bar, 7.0);
    const double rc = 2.0 * std::sqrt(cp_bar7 / (cp_bar7 + std::pow(25.0, 7.0)));
    const double l_term = (l_bar - 50.0) * (l_bar - 50.0);
    const double sl = 1.0 + 0.015 * l_term / std::sqrt(20.0 + l_term);
    const double sc = 1.0 + 0.045 * cp_bar;
    const double sh = 1.0 + 0.015 * cp_bar * t;
    const double rt = -std::sin(deg2rad(2.0 * d_theta)) * rc;

    const double tl = dlp / sl;
    const double tc = dcp / sc;
    const double th = dhp / sh;
    return std::sqrt(tl * tl + tc * tc + th * th + rt * tc * th);
}

}  // namespace sdl::color
