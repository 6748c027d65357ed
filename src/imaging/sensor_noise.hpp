// Counter-based sensor noise for the synthetic camera.
//
// Every noise sample is a pure function of (frame key, pixel, channel).
// A render draws one 64-bit key from the camera's generator, and sample
// `counter` = 3·pixel + channel of that frame is
//
//   z = Φ⁻¹(u),  u = output number counter + 1 of the SplitMix64 stream
//                    seeded with the key.
//
// No sample depends on another, so a frame costs one draw from the
// camera's generator at any size, and any pixel's noise can be
// recomputed on its own: the counter-based construction of Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11). The mix is
// SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA'14), whose output
// sequence passes TestU01's BigCrush.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace sdl::imaging {

/// Noise counter of `channel` at sensor pixel (x, y). The pixel index is
/// y·2³² + x, so a pixel's noise does not depend on the width of the
/// frame it lands in.
[[nodiscard]] constexpr std::uint64_t noise_counter(int x, int y, int channel) noexcept {
    const std::uint64_t pixel =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) << 32) |
        static_cast<std::uint32_t>(x);
    return 3 * pixel + static_cast<std::uint64_t>(channel);
}

/// 64 uniform bits for sample `counter` of the frame keyed `key`.
[[nodiscard]] constexpr std::uint64_t noise_bits(std::uint64_t key,
                                                 std::uint64_t counter) noexcept {
    std::uint64_t z = key + (counter + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Standard normal quantile Φ⁻¹(p) for p in (0, 1): Acklam's rational
/// approximation, relative error below 1.2e-9.
[[nodiscard]] double normal_quantile(double p) noexcept;

/// The inverse-CDF table normal_from_bits interpolates: 2048 equal-mass
/// cells of the half-normal, entry i = Φ⁻¹(1/2 + i/4096). The outermost
/// kNormalTailCells cells have no entries (see normal_from_bits).
inline constexpr int kNormalCellBits = 11;
inline constexpr std::uint64_t kNormalCells = std::uint64_t{1} << kNormalCellBits;
inline constexpr std::uint64_t kNormalTailCells = 4;
using NormalTable = std::array<double, kNormalCells - kNormalTailCells + 1>;

/// The process-wide table (16 KB), built on first use.
[[nodiscard]] const NormalTable& normal_table();

/// Standard normal deviate from 64 uniform bits, by inversion. The top
/// bit is the sign and the low 63 bits are w in [0, 1), with
/// |z| = Φ⁻¹((1 + w) / 2). The next 11 bits pick a table cell and the low
/// 52 interpolate linearly inside it (error below 2e-3 in z, largest in
/// the outermost interpolated cell). The last 4 cells, |z| > 3.097 or one
/// sample in 512, call normal_quantile on the exact tail mass instead.
[[nodiscard]] inline double normal_from_bits(std::uint64_t bits,
                                             const NormalTable& table) noexcept {
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    constexpr int kFracBits = 63 - kNormalCellBits;
    const std::uint64_t cell = (bits >> kFracBits) & (kNormalCells - 1);
    double magnitude = 0.0;
    if (cell < kNormalCells - kNormalTailCells) [[likely]] {
        const std::uint64_t frac_bits = bits & ((std::uint64_t{1} << kFracBits) - 1);
        const double frac = static_cast<double>(frac_bits) * 0x1p-52;
        magnitude = table[cell] + frac * (table[cell + 1] - table[cell]);
    } else {
        // Tail mass (1 - w) / 2, from integers so it is never 0: >= 2^-64.
        const std::uint64_t rest = kSign - (bits & ~kSign);
        magnitude = -normal_quantile(static_cast<double>(rest) * 0x1p-64);
    }
    // magnitude >= 0, so OR-ing in the sign bit negates it.
    const std::uint64_t signed_bits = std::bit_cast<std::uint64_t>(magnitude) | (bits & kSign);
    return std::bit_cast<double>(signed_bits);
}

/// Standard normal noise of `channel` at sensor pixel (x, y) in the frame
/// keyed `key` — the value the renderer scales by the scene's sigma.
[[nodiscard]] inline double sensor_noise(std::uint64_t key, int x, int y, int channel) {
    return normal_from_bits(noise_bits(key, noise_counter(x, y, channel)), normal_table());
}

}  // namespace sdl::imaging
