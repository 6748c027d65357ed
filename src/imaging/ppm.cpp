#include "imaging/ppm.hpp"

#include <cstdio>

#include "support/atomic_io.hpp"

namespace sdl::imaging {

void save_ppm(const Image& img, const std::string& path) {
    support::atomic_write(path, encode_ppm(img));
}

std::string encode_ppm(const Image& img) {
    std::string out;
    char header[64];
    std::snprintf(header, sizeof(header), "P6\n%d %d\n255\n", img.width(), img.height());
    out += header;
    const auto bytes = img.bytes();
    out.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    return out;
}

}  // namespace sdl::imaging
