// Netpbm image I/O: binary P6 (RGB) and P5 (grayscale).
//
// Camera frames are archived as PPM for quality control, mirroring the
// paper's raw plate images published to the data portal.
#pragma once

#include <string>

#include "imaging/image.hpp"

namespace sdl::imaging {

/// Writes `img` as binary PPM (P6). Throws Error("io") on failure.
void save_ppm(const Image& img, const std::string& path);

/// Reads a binary PPM (P6) with maxval 255.
[[nodiscard]] Image load_ppm(const std::string& path);

/// Serializes to an in-memory PPM byte string (used by the simulated
/// publication flow, which stores images as blobs).
[[nodiscard]] std::string encode_ppm(const Image& img);

/// Parses an in-memory PPM byte string.
[[nodiscard]] Image decode_ppm(const std::string& bytes);

}  // namespace sdl::imaging
