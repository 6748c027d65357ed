#include "imaging/ppm.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/atomic_io.hpp"
#include "support/common.hpp"

namespace sdl::imaging {

namespace {

void skip_ppm_whitespace(std::istream& in) {
    for (;;) {
        const int c = in.peek();
        if (c == '#') {
            std::string comment;
            std::getline(in, comment);
        } else if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
            in.get();
        } else {
            return;
        }
    }
}

Image parse_ppm(std::istream& in, const std::string& what) {
    std::string magic;
    in >> magic;
    if (magic != "P6") throw support::Error("io", what + ": not a binary PPM (P6)");
    skip_ppm_whitespace(in);
    int width = 0, height = 0, maxval = 0;
    in >> width;
    skip_ppm_whitespace(in);
    in >> height;
    skip_ppm_whitespace(in);
    in >> maxval;
    if (!in || width <= 0 || height <= 0) {
        throw support::Error("io", what + ": malformed PPM header");
    }
    if (maxval != 255) throw support::Error("io", what + ": only maxval 255 supported");
    in.get();  // single whitespace after header

    Image img(width, height);
    auto bytes = img.bytes();
    in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
    if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
        throw support::Error("io", what + ": truncated PPM pixel data");
    }
    return img;
}

}  // namespace

void save_ppm(const Image& img, const std::string& path) {
    support::atomic_write(path, encode_ppm(img));
}

Image load_ppm(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw support::Error("io", "cannot open '" + path + "'");
    return parse_ppm(file, path);
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

Image decode_ppm(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    return parse_ppm(in, "<memory>");
}

}  // namespace sdl::imaging
