// Netpbm image output: binary P6 (RGB).
//
// Camera frames can be saved as PPM for inspection (examples/
// vision_pipeline), mirroring the paper's raw plate images.
#pragma once

#include <string>

#include "imaging/image.hpp"

namespace sdl::imaging {

/// Writes `img` as binary PPM (P6). Throws Error("io") on failure.
void save_ppm(const Image& img, const std::string& path);

/// Serializes to an in-memory PPM byte string: the "P6 <w> <h> 255"
/// header, then the raw RGB bytes row by row.
[[nodiscard]] std::string encode_ppm(const Image& img);

}  // namespace sdl::imaging
