// The workcell's dyes for the simulated liquid-color chemistry.
//
// The physical lab mixes cyan, magenta, yellow and black food dyes from
// the OT2's four reservoirs (§2.1, §2.2). Each simulated dye is
// characterized by per-channel absorptivity coefficients; mixtures
// attenuate backlight according to Beer–Lambert (see mixing.hpp).
// Coefficients are chosen so the paper's target color RGB(120,120,120) is
// exactly reachable by a valid ratio vector (verified by the
// invert_target test).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace sdl::color {

/// Number of dyes, one per OT2 reservoir: every ratio vector, dispense
/// order and well content has this many entries.
inline constexpr std::size_t kDyes = 4;

struct Dye {
    std::string_view name;
    /// Absorptivity per RGB channel at unit concentration and unit path
    /// length (natural log basis): OD_ch = concentration * absorptivity_ch.
    std::array<double, 3> absorptivity{};
};

/// The dyes in reservoir order: cyan, magenta, yellow, black.
inline constexpr std::array<Dye, kDyes> kCmyk{{
    // Cyan absorbs red strongly, green moderately.
    {"cyan", {2.50, 0.50, 0.15}},
    // Magenta absorbs green strongly.
    {"magenta", {0.40, 2.50, 0.30}},
    // Yellow absorbs blue strongly.
    {"yellow", {0.05, 0.25, 2.20}},
    // Black absorbs all channels equally.
    {"black", {4.00, 4.00, 4.00}},
}};

}  // namespace sdl::color
