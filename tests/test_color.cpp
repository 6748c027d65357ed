// Tests for color spaces, ΔE metrics, dyes and the Beer–Lambert mixer.
#include <gtest/gtest.h>

#include <cmath>

#include "color/dye.hpp"
#include "color/lab.hpp"
#include "color/mixing.hpp"
#include "color/rgb.hpp"
#include "support/common.hpp"
#include "support/random.hpp"
#include "support/units.hpp"

using namespace sdl::color;
using sdl::support::Rng;
using sdl::support::Volume;

// ------------------------------------------------------------ rgb / srgb

TEST(Rgb, TransferFunctionEndpoints) {
    EXPECT_DOUBLE_EQ(srgb_to_linear(0.0), 0.0);
    EXPECT_NEAR(srgb_to_linear(1.0), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(linear_to_srgb(0.0), 0.0);
    EXPECT_NEAR(linear_to_srgb(1.0), 1.0, 1e-12);
}

TEST(Rgb, TransferRoundTrip) {
    for (int i = 0; i <= 255; ++i) {
        const double e = i / 255.0;
        EXPECT_NEAR(linear_to_srgb(srgb_to_linear(e)), e, 1e-12);
    }
}

TEST(Rgb, EightBitRoundTrip) {
    // to_srgb8(to_linear(c)) must be the identity on all 8-bit gray values
    // and a healthy sample of colors.
    for (int i = 0; i <= 255; ++i) {
        const auto v = static_cast<std::uint8_t>(i);
        const Rgb8 c{v, v, v};
        EXPECT_EQ(to_srgb8(to_linear(c)), c);
    }
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const Rgb8 c{static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})),
                     static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})),
                     static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}))};
        EXPECT_EQ(to_srgb8(to_linear(c)), c);
    }
}

TEST(Rgb, DistanceProperties) {
    const Rgb8 a{120, 120, 120};
    const Rgb8 b{130, 110, 120};
    EXPECT_DOUBLE_EQ(rgb_distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(rgb_distance(a, b), rgb_distance(b, a));
    EXPECT_NEAR(rgb_distance(a, b), std::sqrt(200.0), 1e-12);
    EXPECT_DOUBLE_EQ(rgb_distance({0, 0, 0}, {255, 255, 255}), std::sqrt(3.0) * 255);
}

TEST(Rgb, Formatting) {
    const Rgb8 c{120, 120, 120};
    EXPECT_EQ(c.str(), "rgb(120,120,120)");
}

// ------------------------------------------------------------- lab / xyz

TEST(Lab, WhitePointMapsToL100) {
    const Lab white = to_lab({255, 255, 255});
    EXPECT_NEAR(white.l, 100.0, 0.01);
    EXPECT_NEAR(white.a, 0.0, 0.01);
    EXPECT_NEAR(white.b, 0.0, 0.01);
}

TEST(Lab, BlackMapsToL0) {
    const Lab black = to_lab({0, 0, 0});
    EXPECT_NEAR(black.l, 0.0, 1e-9);
}

TEST(Lab, XyzRoundTrip) {
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const LinearRgb c{rng.uniform(), rng.uniform(), rng.uniform()};
        const Xyz xyz = to_xyz(c);
        const LinearRgb back = xyz_to_linear(xyz);
        // The published sRGB<->XYZ matrices are 7-digit constants, so the
        // round-trip is exact only to ~1e-6.
        EXPECT_NEAR(back.r, c.r, 1e-6);
        EXPECT_NEAR(back.g, c.g, 1e-6);
        EXPECT_NEAR(back.b, c.b, 1e-6);
    }
}

TEST(DeltaE, IdentityAndSymmetry) {
    const Lab a = to_lab({120, 120, 120});
    const Lab b = to_lab({140, 100, 130});
    EXPECT_DOUBLE_EQ(delta_e76(a, a), 0.0);
    EXPECT_NEAR(delta_e2000(a, a), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(delta_e76(a, b), delta_e76(b, a));
    EXPECT_NEAR(delta_e2000(a, b), delta_e2000(b, a), 1e-12);
}

// Reference pairs from Sharma, Wu & Dalal's CIEDE2000 test data.
struct De2000Case {
    Lab lab1;
    Lab lab2;
    double expected;
};

class DeltaE2000Reference : public ::testing::TestWithParam<De2000Case> {};

TEST_P(DeltaE2000Reference, MatchesPublishedValue) {
    const auto& c = GetParam();
    EXPECT_NEAR(delta_e2000(c.lab1, c.lab2), c.expected, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    SharmaPairs, DeltaE2000Reference,
    ::testing::Values(
        De2000Case{{50.0, 2.6772, -79.7751}, {50.0, 0.0, -82.7485}, 2.0425},
        De2000Case{{50.0, 3.1571, -77.2803}, {50.0, 0.0, -82.7485}, 2.8615},
        De2000Case{{50.0, 2.8361, -74.0200}, {50.0, 0.0, -82.7485}, 3.4412},
        De2000Case{{50.0, -1.3802, -84.2814}, {50.0, 0.0, -82.7485}, 1.0000},
        De2000Case{{50.0, 2.5000, 0.0}, {50.0, 0.0, -2.5}, 4.3065},
        De2000Case{{50.0, 2.5, 0.0}, {73.0, 25.0, -18.0}, 27.1492},
        De2000Case{{50.0, 2.5, 0.0}, {50.0, 3.2592, 0.335}, 1.0000},
        De2000Case{{2.0776, 0.0795, -1.135}, {0.9033, -0.0636, -0.5514}, 0.9082}));

// ------------------------------------------------------------------ dyes

TEST(Dye, CmykLibraryLayout) {
    const DyeLibrary lib = DyeLibrary::cmyk();
    EXPECT_EQ(lib.count(), 4u);
    EXPECT_EQ(lib.dye(0).name, "cyan");
    EXPECT_EQ(lib.index_of("black"), 3u);
    EXPECT_THROW((void)lib.index_of("mauve"), sdl::support::ConfigError);
}

TEST(Dye, CyanAbsorbsRedMost) {
    const DyeLibrary lib = DyeLibrary::cmyk();
    const auto& cyan = lib.dye(lib.index_of("cyan")).absorptivity;
    EXPECT_GT(cyan[0], cyan[1]);
    EXPECT_GT(cyan[1], cyan[2]);
}

// ---------------------------------------------------------------- mixing

TEST(Mixer, EmptyWellIsWhite) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const std::vector<double> none{0, 0, 0, 0};
    EXPECT_EQ(mixer.mix_ratios(none), (Rgb8{255, 255, 255}));
}

TEST(Mixer, PureBlackIsVeryDark) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const std::vector<double> black{0, 0, 0, 1};
    const Rgb8 c = mixer.mix_ratios(black);
    EXPECT_LT(c.r, 60);
    EXPECT_LT(c.g, 60);
    EXPECT_LT(c.b, 60);
    EXPECT_EQ(c.r, c.g);
    EXPECT_EQ(c.g, c.b);
}

TEST(Mixer, CyanLooksCyan) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const std::vector<double> cyan{1, 0, 0, 0};
    const Rgb8 c = mixer.mix_ratios(cyan);
    EXPECT_LT(c.r, c.g);
    EXPECT_LT(c.g, c.b);
}

TEST(Mixer, ScaleInvarianceOfRatios) {
    // Color depends only on mixing ratios, not absolute volumes.
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const std::vector<double> a{0.2, 0.3, 0.1, 0.4};
    const std::vector<double> b{2.0, 3.0, 1.0, 4.0};
    EXPECT_EQ(mixer.mix_ratios(a), mixer.mix_ratios(b));
}

TEST(Mixer, VolumeOverloadMatchesRatioOverload) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const std::vector<Volume> vols{Volume::microliters(20), Volume::microliters(30),
                                   Volume::microliters(10), Volume::microliters(40)};
    const std::vector<double> ratios{0.2, 0.3, 0.1, 0.4};
    EXPECT_EQ(mixer.mix(vols), mixer.mix_ratios(ratios));
}

TEST(Mixer, MoreBlackIsMonotonicallyDarker) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    int prev_sum = 3 * 255 + 1;
    for (double k = 0.0; k <= 1.0; k += 0.1) {
        const std::vector<double> ratios{(1 - k) / 3, (1 - k) / 3, (1 - k) / 3, k};
        const Rgb8 c = mixer.mix_ratios(ratios);
        const int sum = c.r + c.g + c.b;
        EXPECT_LE(sum, prev_sum);
        prev_sum = sum;
    }
}

TEST(Mixer, PaperTargetIsExactlyReachable) {
    // The Figure-4 target RGB(120,120,120) must lie inside the dye gamut;
    // the analytic inverse should find ratios that reproduce it exactly.
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const Rgb8 target{120, 120, 120};
    const auto ratios = mixer.invert_target(target);
    ASSERT_TRUE(ratios.has_value());
    double sum = 0.0;
    for (const double r : *ratios) {
        EXPECT_GE(r, 0.0);
        sum += r;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_LE(rgb_distance(mixer.mix_ratios(*ratios), target), 1.0);
}

TEST(Mixer, OutOfGamutTargetIsRejected) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    // Saturated pure red is not reachable with C/M/Y/K subtractive dyes.
    EXPECT_FALSE(mixer.invert_target({255, 0, 0}).has_value());
    // Pitch black is darker than the darkest achievable mixture.
    EXPECT_FALSE(mixer.invert_target({0, 0, 0}).has_value());
}

TEST(Mixer, NegativeFractionThrows) {
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const std::vector<double> bad{-0.1, 0.5, 0.3, 0.3};
    EXPECT_THROW((void)mixer.mix_ratios(bad), sdl::support::LogicError);
}

// Property sweep: the analytic inverse round-trips across the gray ramp
// that is inside the gamut.
class MixerGrayInvert : public ::testing::TestWithParam<int> {};

TEST_P(MixerGrayInvert, InverseReproducesGray) {
    const auto v = static_cast<std::uint8_t>(GetParam());
    const BeerLambertMixer mixer(DyeLibrary::cmyk());
    const Rgb8 target{v, v, v};
    const auto ratios = mixer.invert_target(target);
    ASSERT_TRUE(ratios.has_value()) << "gray " << int(v) << " should be reachable";
    EXPECT_LE(rgb_distance(mixer.mix_ratios(*ratios), target), 1.0);
}

INSTANTIATE_TEST_SUITE_P(GrayRamp, MixerGrayInvert,
                         ::testing::Values(90, 100, 110, 120, 130, 140, 150, 160));
