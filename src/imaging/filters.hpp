// Image filters: separable Gaussian blur, Sobel gradients and adaptive
// thresholding — the preprocessing stages of §2.4's pipeline.
#pragma once

#include "imaging/geometry.hpp"
#include "imaging/image.hpp"

namespace sdl::imaging {

/// Reusable separable-blur workspace: the kernel coefficients and the
/// horizontal-pass intermediate plane persist across frames instead of
/// being reallocated per call.
struct BlurScratch {
    std::vector<float> kernel;
    GrayImage tmp;
};

/// Separable Gaussian blur; kernel radius = ceil(3*sigma). sigma <= 0
/// returns the input unchanged.
[[nodiscard]] GrayImage gaussian_blur(const GrayImage& img, double sigma);

/// Blur into a reusable output plane with a persistent workspace — the
/// zero-allocation hot path (same bits as gaussian_blur: identical
/// taps in identical order, with clamping only where a border needs
/// it). `out` must not alias `img`.
void gaussian_blur(const GrayImage& img, double sigma, GrayImage& out,
                   BlurScratch& scratch);

/// Horizontal and vertical Sobel derivative planes.
struct Gradients {
    GrayImage gx;
    GrayImage gy;
};
[[nodiscard]] Gradients sobel(const GrayImage& img);

/// Sobel into reusable planes (no allocation once warm).
void sobel(const GrayImage& img, Gradients& out);

/// Adaptive mean threshold: mask = img < local_mean(window) - offset,
/// computed with an integral image (O(1) per pixel).
[[nodiscard]] BinaryImage adaptive_threshold(const GrayImage& img, int window,
                                             float offset);

/// Adaptive threshold into a reusable mask, with the summed-area table
/// kept in a caller-owned buffer (no allocation once warm).
void adaptive_threshold(const GrayImage& img, int window, float offset,
                        BinaryImage& mask, std::vector<double>& integral);

}  // namespace sdl::imaging
