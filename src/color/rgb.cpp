#include "color/rgb.hpp"

#include <cmath>
#include <cstdio>

namespace sdl::color {

std::string Rgb8::str() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "rgb(%u,%u,%u)", r, g, b);
    return buf;
}

double srgb_to_linear(double encoded) noexcept {
    if (encoded <= 0.04045) return encoded / 12.92;
    return std::pow((encoded + 0.055) / 1.055, 2.4);
}

double linear_to_srgb(double linear) noexcept {
    if (linear <= 0.0031308) return linear * 12.92;
    return 1.055 * std::pow(linear, 1.0 / 2.4) - 0.055;
}

LinearRgb to_linear(Rgb8 c) noexcept {
    return {srgb_to_linear(c.r / 255.0), srgb_to_linear(c.g / 255.0),
            srgb_to_linear(c.b / 255.0)};
}

Rgb8 to_srgb8(LinearRgb c) noexcept {
    const LinearRgb cl = c.clamped();
    auto quantize = [](double x) {
        const double v = linear_to_srgb(x) * 255.0;
        const long q = std::lround(v);
        return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
    };
    return {quantize(cl.r), quantize(cl.g), quantize(cl.b)};
}

double rgb_distance(Rgb8 a, Rgb8 b) noexcept {
    const double dr = static_cast<double>(a.r) - b.r;
    const double dg = static_cast<double>(a.g) - b.g;
    const double db = static_cast<double>(a.b) - b.b;
    return std::sqrt(dr * dr + dg * dg + db * db);
}

}  // namespace sdl::color
