#include "imaging/image.hpp"

#include <cmath>

#include "support/common.hpp"

namespace sdl::imaging {

Image::Image(int width, int height, color::Rgb8 fill) : width_(width), height_(height) {
    support::check(width >= 0 && height >= 0, "negative image dimensions");
    data_.resize(3 * static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
    if (fill == color::Rgb8{0, 0, 0}) return;  // resize already zeroed it
    for (std::size_t i = 0; i + 2 < data_.size(); i += 3) {
        data_[i] = fill.r;
        data_[i + 1] = fill.g;
        data_[i + 2] = fill.b;
    }
}

GrayImage::GrayImage(int width, int height, float fill) : width_(width), height_(height) {
    support::check(width >= 0 && height >= 0, "negative image dimensions");
    data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill);
}

void GrayImage::reset(int width, int height) {
    support::check(width >= 0 && height >= 0, "negative image dimensions");
    width_ = width;
    height_ = height;
    data_.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
}

BinaryImage::BinaryImage(int width, int height, bool fill)
    : width_(width), height_(height) {
    support::check(width >= 0 && height >= 0, "negative image dimensions");
    data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
                 fill ? 1 : 0);
}

void BinaryImage::reset(int width, int height) {
    support::check(width >= 0 && height >= 0, "negative image dimensions");
    width_ = width;
    height_ = height;
    data_.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
}

std::size_t BinaryImage::count() const noexcept {
    std::size_t n = 0;
    for (const auto v : data_) n += v;
    return n;
}

GrayImage to_gray(const Image& rgb) {
    GrayImage out;
    to_gray(rgb, out);
    return out;
}

void to_gray(const Image& rgb, GrayImage& out) {
    to_gray_roi(rgb, {0, 0, rgb.width(), rgb.height()}, out);
}

void to_gray_roi(const Image& rgb, Rect roi, GrayImage& out) {
    const Rect r = roi.clipped(rgb.width(), rgb.height());
    out.reset(r.width(), r.height());
    const std::span<const std::uint8_t> bytes = rgb.bytes();
    for (int y = 0; y < r.height(); ++y) {
        const std::uint8_t* src =
            bytes.data() + 3 * (static_cast<std::size_t>(y + r.y0) *
                                    static_cast<std::size_t>(rgb.width()) +
                                static_cast<std::size_t>(r.x0));
        float* dst = out.values().data() +
                     static_cast<std::size_t>(y) * static_cast<std::size_t>(r.width());
        for (int x = 0; x < r.width(); ++x) {
            dst[x] = static_cast<float>(
                (0.299 * src[0] + 0.587 * src[1] + 0.114 * src[2]) / 255.0);
            src += 3;
        }
    }
}

float sample_bilinear(const GrayImage& img, double x, double y) noexcept {
    if (img.width() == 0 || img.height() == 0) return 0.0F;
    const double cx = support::clamp(x, 0.0, static_cast<double>(img.width() - 1));
    const double cy = support::clamp(y, 0.0, static_cast<double>(img.height() - 1));
    const int x0 = static_cast<int>(cx);
    const int y0 = static_cast<int>(cy);
    const int x1 = x0 + 1 < img.width() ? x0 + 1 : x0;
    const int y1 = y0 + 1 < img.height() ? y0 + 1 : y0;
    const double fx = cx - x0;
    const double fy = cy - y0;
    const double top = img.at(x0, y0) * (1 - fx) + img.at(x1, y0) * fx;
    const double bot = img.at(x0, y1) * (1 - fx) + img.at(x1, y1) * fx;
    return static_cast<float>(top * (1 - fy) + bot * fy);
}

color::Rgb8 mean_color_in_disk(const Image& img, double cx, double cy, double r) noexcept {
    const int x0 = static_cast<int>(std::floor(cx - r));
    const int x1 = static_cast<int>(std::ceil(cx + r));
    const int y0 = static_cast<int>(std::floor(cy - r));
    const int y1 = static_cast<int>(std::ceil(cy + r));
    double sr = 0.0, sg = 0.0, sb = 0.0;
    std::size_t n = 0;
    for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) {
            if (!img.in_bounds(x, y)) continue;
            const double dx = x - cx;
            const double dy = y - cy;
            if (dx * dx + dy * dy > r * r) continue;
            const color::Rgb8 c = img.pixel(x, y);
            sr += c.r;
            sg += c.g;
            sb += c.b;
            ++n;
        }
    }
    if (n == 0) return {0, 0, 0};
    auto avg = [n](double s) {
        const long v = std::lround(s / static_cast<double>(n));
        return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
    };
    return {avg(sr), avg(sg), avg(sb)};
}

}  // namespace sdl::imaging
