#include "imaging/filters.hpp"

#include <cmath>
#include <vector>

#include "support/common.hpp"

namespace sdl::imaging {

GrayImage gaussian_blur(const GrayImage& img, double sigma) {
    GrayImage out;
    BlurScratch scratch;
    gaussian_blur(img, sigma, out, scratch);
    return out;
}

void gaussian_blur(const GrayImage& img, double sigma, GrayImage& out,
                   BlurScratch& scratch) {
    if (sigma <= 0.0 || img.width() == 0 || img.height() == 0) {
        out = img;
        return;
    }
    const int radius = static_cast<int>(std::ceil(3.0 * sigma));
    std::vector<float>& kernel = scratch.kernel;
    kernel.resize(static_cast<std::size_t>(2 * radius + 1));
    float sum = 0.0F;
    for (int i = -radius; i <= radius; ++i) {
        const auto w = static_cast<float>(std::exp(-0.5 * (i * i) / (sigma * sigma)));
        kernel[static_cast<std::size_t>(i + radius)] = w;
        sum += w;
    }
    for (float& w : kernel) w /= sum;

    const int width = img.width();
    const int height = img.height();
    scratch.tmp.reset(width, height);
    out.reset(width, height);
    GrayImage& tmp = scratch.tmp;

    // Horizontal pass: clamped taps only where a tap actually leaves the
    // row; interior pixels run a straight pointer walk. Tap order (k
    // ascending) matches the naive loop, so every pixel carries the same
    // bits.
    const int x_interior_end = width - radius;  // may be <= radius: loop skipped
    for (int y = 0; y < height; ++y) {
        const float* src = img.values().data() +
                           static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
        float* dst = tmp.values().data() +
                     static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
        int x = 0;
        for (; x < width && x < radius; ++x) {
            float acc = 0.0F;
            for (int k = -radius; k <= radius; ++k) {
                const int xx = support::clamp(x + k, 0, width - 1);
                acc += kernel[static_cast<std::size_t>(k + radius)] * src[xx];
            }
            dst[x] = acc;
        }
        for (; x < x_interior_end; ++x) {
            float acc = 0.0F;
            const float* in = src + x - radius;
            for (int k = 0; k <= 2 * radius; ++k) {
                acc += kernel[static_cast<std::size_t>(k)] * in[k];
            }
            dst[x] = acc;
        }
        for (; x < width; ++x) {
            float acc = 0.0F;
            for (int k = -radius; k <= radius; ++k) {
                const int xx = support::clamp(x + k, 0, width - 1);
                acc += kernel[static_cast<std::size_t>(k + radius)] * src[xx];
            }
            dst[x] = acc;
        }
    }
    // Vertical pass, restructured as one weighted row-accumulate per tap:
    // for each output pixel the taps still add in ascending-k order
    // (starting from 0), so the result is bitwise identical to the naive
    // column loop while the inner loops stay contiguous.
    for (int y = 0; y < height; ++y) {
        float* dst = out.values().data() +
                     static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
        for (int x = 0; x < width; ++x) dst[x] = 0.0F;
        for (int k = -radius; k <= radius; ++k) {
            const int yy = support::clamp(y + k, 0, height - 1);
            const float w = kernel[static_cast<std::size_t>(k + radius)];
            const float* src = tmp.values().data() +
                               static_cast<std::size_t>(yy) * static_cast<std::size_t>(width);
            for (int x = 0; x < width; ++x) dst[x] += w * src[x];
        }
    }
}

Gradients sobel(const GrayImage& img) {
    Gradients g;
    sobel(img, g);
    return g;
}

void sobel(const GrayImage& img, Gradients& out) {
    const int width = img.width();
    const int height = img.height();
    out.gx.reset(width, height);
    out.gy.reset(width, height);
    // The naive version zero-initializes whole planes and fills the
    // interior; reused planes only need their one-pixel border cleared.
    for (int x = 0; x < width; ++x) {
        if (height > 0) {
            out.gx.at(x, 0) = 0.0F;
            out.gy.at(x, 0) = 0.0F;
            out.gx.at(x, height - 1) = 0.0F;
            out.gy.at(x, height - 1) = 0.0F;
        }
    }
    for (int y = 0; y < height; ++y) {
        if (width > 0) {
            out.gx.at(0, y) = 0.0F;
            out.gy.at(0, y) = 0.0F;
            out.gx.at(width - 1, y) = 0.0F;
            out.gy.at(width - 1, y) = 0.0F;
        }
    }
    if (width < 3 || height < 3) {
        for (float& v : out.gx.values()) v = 0.0F;
        for (float& v : out.gy.values()) v = 0.0F;
        return;
    }
    for (int y = 1; y < height - 1; ++y) {
        const std::size_t stride = static_cast<std::size_t>(width);
        const float* r0 = img.values().data() + static_cast<std::size_t>(y - 1) * stride;
        const float* r1 = r0 + stride;
        const float* r2 = r1 + stride;
        float* gx = out.gx.values().data() + static_cast<std::size_t>(y) * stride;
        float* gy = out.gy.values().data() + static_cast<std::size_t>(y) * stride;
        for (int x = 1; x < width - 1; ++x) {
            const float p00 = r0[x - 1], p10 = r0[x], p20 = r0[x + 1];
            const float p01 = r1[x - 1], p21 = r1[x + 1];
            const float p02 = r2[x - 1], p12 = r2[x], p22 = r2[x + 1];
            gx[x] = (p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02);
            gy[x] = (p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20);
        }
    }
}

namespace {

double boxed_sum(const std::vector<double>& integral, int width, Rect r) {
    const auto at = [&](int x, int y) {
        return integral[static_cast<std::size_t>(y) * static_cast<std::size_t>(width + 1) +
                        static_cast<std::size_t>(x)];
    };
    return at(r.x1, r.y1) - at(r.x0, r.y1) - at(r.x1, r.y0) + at(r.x0, r.y0);
}

}  // namespace

BinaryImage adaptive_threshold(const GrayImage& img, int window, float offset) {
    BinaryImage mask;
    std::vector<double> integral;
    adaptive_threshold(img, window, offset, mask, integral);
    return mask;
}

void adaptive_threshold(const GrayImage& img, int window, float offset,
                        BinaryImage& mask, std::vector<double>& integral) {
    support::check(window >= 3 && window % 2 == 1, "window must be odd and >= 3");
    const int width = img.width();
    const int height = img.height();
    mask.reset(width, height);
    if (width == 0 || height == 0) return;
    // Summed-area table with an extra zero row/column, built into the
    // caller-owned buffer.
    integral.resize(static_cast<std::size_t>(width + 1) *
                    static_cast<std::size_t>(height + 1));
    const std::size_t stride = static_cast<std::size_t>(width + 1);
    for (std::size_t x = 0; x < stride; ++x) integral[x] = 0.0;
    for (int y = 1; y <= height; ++y) {
        integral[static_cast<std::size_t>(y) * stride] = 0.0;
        const float* src = img.values().data() +
                           static_cast<std::size_t>(y - 1) * static_cast<std::size_t>(width);
        const double* above = integral.data() + static_cast<std::size_t>(y - 1) * stride;
        double* row = integral.data() + static_cast<std::size_t>(y) * stride;
        double row_sum = 0.0;
        for (int x = 1; x <= width; ++x) {
            row_sum += src[x - 1];
            row[x] = above[x] + row_sum;
        }
    }
    const int half = window / 2;
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const Rect r = Rect{x - half, y - half, x + half + 1, y + half + 1}.clipped(
                width, height);
            const double n = static_cast<double>(r.width()) * r.height();
            const double mean = boxed_sum(integral, width, r) / n;
            mask.set(x, y, img.at(x, y) < mean - offset);
        }
    }
}

}  // namespace sdl::imaging
