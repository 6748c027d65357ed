// Additional imaging coverage: drawing primitives, filter edge cases,
// renderer properties, and detector behaviour at the margins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/fiducial.hpp"
#include "imaging/filters.hpp"
#include "imaging/gridfit.hpp"
#include "imaging/hough.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/ppm.hpp"
#include "imaging/sensor_noise.hpp"
#include "imaging/well_reader.hpp"
#include "linalg/fastmath.hpp"
#include "support/common.hpp"
#include "support/random.hpp"

using namespace sdl::imaging;
using sdl::color::Rgb8;
using sdl::support::Rng;

// ------------------------------------------------------------------ draw

TEST(Draw, FillRectClipsToImage) {
    Image img(10, 10, {0, 0, 0});
    fill_rect(img, {-5, -5, 5, 5}, {255, 255, 255});
    EXPECT_EQ(img.pixel(0, 0), (Rgb8{255, 255, 255}));
    EXPECT_EQ(img.pixel(4, 4), (Rgb8{255, 255, 255}));
    EXPECT_EQ(img.pixel(5, 5), (Rgb8{0, 0, 0}));
    // Entirely outside: no-op, no crash.
    fill_rect(img, {20, 20, 30, 30}, {9, 9, 9});
}

TEST(Draw, FillCircleCoversExpectedArea) {
    Image img(50, 50, {0, 0, 0});
    fill_circle(img, {25, 25}, 10, {255, 255, 255});
    std::size_t white = 0;
    for (int y = 0; y < 50; ++y) {
        for (int x = 0; x < 50; ++x) {
            if (img.pixel(x, y).r > 128) ++white;
        }
    }
    const double area = 3.14159265 * 100.0;
    EXPECT_NEAR(static_cast<double>(white), area, area * 0.06);
}

TEST(Draw, FillCircleAntialiasesEdges) {
    Image img(30, 30, {0, 0, 0});
    fill_circle(img, {15.5, 15.5}, 8, {255, 255, 255});
    // Some pixels must be partially covered (neither black nor white).
    int partial = 0;
    for (int y = 0; y < 30; ++y) {
        for (int x = 0; x < 30; ++x) {
            const auto v = img.pixel(x, y).r;
            if (v > 20 && v < 235) ++partial;
        }
    }
    EXPECT_GT(partial, 4);
}

TEST(Draw, FillRingLeavesInteriorUntouched) {
    Image img(60, 60, {10, 10, 10});
    fill_ring(img, {30, 30}, 20, 14, {200, 200, 200});
    EXPECT_EQ(img.pixel(30, 30), (Rgb8{10, 10, 10}));     // center
    EXPECT_GT(img.pixel(30 + 17, 30).r, 150);             // mid-ring
    EXPECT_EQ(img.pixel(30 + 25, 30), (Rgb8{10, 10, 10}));  // outside
}

TEST(Draw, FillQuadHandlesBothWindingOrders) {
    Image a(20, 20, {0, 0, 0});
    Image b(20, 20, {0, 0, 0});
    const Vec2 cw[4] = {{4, 4}, {15, 4}, {15, 15}, {4, 15}};
    const Vec2 ccw[4] = {{4, 4}, {4, 15}, {15, 15}, {15, 4}};
    fill_quad(a, cw, {255, 255, 255});
    fill_quad(b, ccw, {255, 255, 255});
    for (int y = 0; y < 20; ++y) {
        for (int x = 0; x < 20; ++x) {
            EXPECT_EQ(a.pixel(x, y), b.pixel(x, y)) << x << "," << y;
        }
    }
    EXPECT_EQ(a.pixel(10, 10), (Rgb8{255, 255, 255}));
}

TEST(Draw, CircleOutlinePointsLieOnRadius) {
    Image img(60, 60, {0, 0, 0});
    draw_circle(img, {30, 30}, 12, {0, 255, 0});
    for (int y = 0; y < 60; ++y) {
        for (int x = 0; x < 60; ++x) {
            if (img.pixel(x, y).g == 255) {
                const double d = std::hypot(x - 30.0, y - 30.0);
                EXPECT_NEAR(d, 12.0, 1.2);
            }
        }
    }
}

// --------------------------------------------------------------- filters

TEST(FiltersExtra, ZeroSigmaBlurIsIdentity) {
    Rng rng(3);
    GrayImage img(8, 8);
    for (auto& v : img.values()) v = static_cast<float>(rng.uniform());
    const GrayImage out = gaussian_blur(img, 0.0);
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) EXPECT_EQ(out.at(x, y), img.at(x, y));
    }
}

TEST(FiltersExtra, SobelDetectsHorizontalEdge) {
    GrayImage img(10, 10);
    for (int y = 5; y < 10; ++y) {
        for (int x = 0; x < 10; ++x) img.at(x, y) = 1.0F;
    }
    const Gradients g = sobel(img);
    EXPECT_GT(g.gy.at(5, 5), 1.0F);
    EXPECT_NEAR(g.gx.at(5, 5), 0.0F, 1e-5F);
}

TEST(FiltersExtra, AdaptiveThresholdOnUniformImageIsEmpty) {
    GrayImage img(32, 32, 0.5F);
    const BinaryImage mask = adaptive_threshold(img, 9, 0.05F);
    EXPECT_EQ(mask.count(), 0u);
}

// ------------------------------------------------------------ components

TEST(ComponentsExtra, LargeBlobDoesNotOverflow) {
    // Flood fill is iterative; a frame-sized blob must be fine.
    BinaryImage mask(300, 300, true);
    const Labeling lab = label_components(mask);
    ASSERT_EQ(lab.blobs.size(), 1u);
    EXPECT_EQ(lab.blobs[0].area, 90000u);
}

TEST(ComponentsExtra, LabelsStayDenseAfterMinAreaFiltering) {
    BinaryImage mask(30, 10);
    mask.set(0, 0, true);  // speck (dropped)
    for (int x = 5; x < 9; ++x)
        for (int y = 2; y < 6; ++y) mask.set(x, y, true);  // blob A
    mask.set(15, 0, true);  // speck (dropped)
    for (int x = 20; x < 26; ++x)
        for (int y = 3; y < 8; ++y) mask.set(x, y, true);  // blob B
    const Labeling lab = label_components(mask, 4);
    ASSERT_EQ(lab.blobs.size(), 2u);
    EXPECT_EQ(lab.blobs[0].label, 0);
    EXPECT_EQ(lab.blobs[1].label, 1);
    EXPECT_EQ(lab.label_at(6, 3), 0);
    EXPECT_EQ(lab.label_at(22, 5), 1);
}

// -------------------------------------------------------------- fiducial

class FiducialSize : public ::testing::TestWithParam<double> {};

TEST_P(FiducialSize, DetectsAcrossScales) {
    const double side = GetParam();
    Image img(400, 300, {90, 90, 95});
    render_marker(img, MarkerDictionary::standard(), 2, {200, 150}, side, 0.15);
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 1u) << "side " << side;
    EXPECT_EQ(detections[0].id, 2u);
    // Boundary-pixel quantization gives an absolute ~2-3 px floor, which
    // dominates for small markers.
    EXPECT_NEAR(detections[0].side, side, std::max(side * 0.08, 3.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FiducialSize,
                         ::testing::Values(24.0, 36.0, 56.0, 80.0, 120.0));

TEST(FiducialExtra, TwoMarkersInOneFrame) {
    Image img(400, 200, {85, 85, 90});
    render_marker(img, MarkerDictionary::standard(), 3, {100, 100}, 50, 0.0);
    render_marker(img, MarkerDictionary::standard(), 9, {300, 100}, 50, 0.4);
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 2u);
    const bool has3 = detections[0].id == 3 || detections[1].id == 3;
    const bool has9 = detections[0].id == 9 || detections[1].id == 9;
    EXPECT_TRUE(has3);
    EXPECT_TRUE(has9);
}

// ----------------------------------------------------------------- hough

TEST(HoughExtra, ResultsSortedByVotes) {
    Image img(200, 100, {230, 230, 230});
    fill_circle(img, {50, 50}, 14, {30, 30, 30});   // big circle: more votes
    fill_circle(img, {150, 50}, 8, {30, 30, 30});   // small circle
    HoughParams params;
    params.r_min = 5;
    params.r_max = 18;
    params.min_center_dist = 30;
    const auto circles = hough_circles(to_gray(img), params);
    ASSERT_GE(circles.size(), 2u);
    EXPECT_GE(circles[0].votes, circles[1].votes);
    EXPECT_NEAR(circles[0].center.x, 50, 3.0);  // the stronger one first
}

TEST(HoughExtra, NmsMergesAdjacentPeaks) {
    Image img(100, 100, {230, 230, 230});
    fill_circle(img, {50, 50}, 12, {30, 30, 30});
    HoughParams params;
    params.r_min = 8;
    params.r_max = 16;
    params.min_center_dist = 15;
    const auto circles = hough_circles(to_gray(img), params);
    EXPECT_EQ(circles.size(), 1u);  // one physical circle -> one detection
}

// ------------------------------------------------------------- grid fit

TEST(GridFitExtra, DegenerateAxesThrow) {
    GridModel m;
    m.origin = {0, 0};
    m.row_axis = {1, 0};
    m.col_axis = {2, 0};  // parallel to row_axis
    EXPECT_THROW((void)m.to_grid({5, 5}), sdl::support::Error);
}

// -------------------------------------------------------------- renderer

TEST(RendererExtra, VignetteDarkensCorners) {
    PlateScene scene;
    scene.noise_sigma = 0.0;
    scene.vignette = 0.25;
    scene.illum_gradient = {0.0, 0.0};
    std::vector<Rgb8> colors(96, Rgb8{120, 120, 120});
    Rng rng(1);
    const Image frame = render_plate(scene, colors, rng);
    // Deck background: corner must be darker than the frame-center deck.
    const Rgb8 corner = frame.pixel(3, 3);
    const Rgb8 center = frame.pixel(frame.width() / 2, 20);
    EXPECT_LT(corner.r, center.r);
}

TEST(RendererExtra, NoiseIsDeterministicPerSeed) {
    PlateScene scene;
    std::vector<Rgb8> colors(96, Rgb8{120, 120, 120});
    Rng rng_a(5), rng_b(5), rng_c(6);
    const Image a = render_plate(scene, colors, rng_a);
    const Image b = render_plate(scene, colors, rng_b);
    const Image c = render_plate(scene, colors, rng_c);
    EXPECT_EQ(a.pixel(100, 100), b.pixel(100, 100));
    EXPECT_EQ(a.pixel(321, 417), b.pixel(321, 417));
    bool differs = false;
    for (int x = 0; x < a.width() && !differs; x += 7) {
        if (!(a.pixel(x, 50) == c.pixel(x, 50))) differs = true;
    }
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------- sensor noise
//
// Every noise sample is a pure function of (frame key, pixel, channel)
// (imaging/sensor_noise.hpp). These tests check its distribution, the
// independence of neighbouring samples, the extreme bit patterns, and
// that a render depends on its Rng only through one drawn key.

namespace {

constexpr std::uint64_t kNoiseKey = 0x5EED5EED5EED5EEDULL;
constexpr int kBlockW = 334;
constexpr int kBlockH = 1000;

/// 1,002,000 draws at kNoiseKey: a kBlockW x kBlockH pixel block, three
/// channels per pixel, in raster order.
std::vector<double> noise_block() {
    std::vector<double> z;
    z.reserve(static_cast<std::size_t>(kBlockW) * kBlockH * 3);
    for (int y = 0; y < kBlockH; ++y) {
        for (int x = 0; x < kBlockW; ++x) {
            for (int c = 0; c < 3; ++c) z.push_back(sensor_noise(kNoiseKey, x, y, c));
        }
    }
    return z;
}

double block_at(const std::vector<double>& z, int x, int y, int c) {
    return z[(static_cast<std::size_t>(y) * kBlockW + static_cast<std::size_t>(x)) * 3 +
             static_cast<std::size_t>(c)];
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Pearson correlation of the pairs (a[i], b[i]).
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
    const double n = static_cast<double>(a.size());
    double sa = 0.0, sb = 0.0, saa = 0.0, sbb = 0.0, sab = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sa += a[i];
        sb += b[i];
        saa += a[i] * a[i];
        sbb += b[i] * b[i];
        sab += a[i] * b[i];
    }
    const double cov = sab / n - (sa / n) * (sb / n);
    const double va = saa / n - (sa / n) * (sa / n);
    const double vb = sbb / n - (sb / n) * (sb / n);
    return cov / std::sqrt(va * vb);
}

}  // namespace

TEST(SensorNoise, BitsAreTheSplitMix64Stream) {
    // noise_bits(key, n) is output n + 1 of SplitMix64 seeded with key:
    // these are the reference generator's first three outputs from seed 0.
    EXPECT_EQ(noise_bits(0, 0), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(noise_bits(0, 1), 0x6E789E6AA1B965F4ULL);
    EXPECT_EQ(noise_bits(0, 2), 0x06C45D188009454FULL);
}

TEST(SensorNoise, QuantileInvertsTheNormalCdf) {
    for (const double p : {1e-19, 1e-12, 1e-6, 1e-3, 0.02425, 0.1, 0.3, 0.5, 0.7, 0.97575,
                           0.999, 1.0 - 1e-9}) {
        const double x = normal_quantile(p);
        // Compare the smaller tail mass, relative to itself, so the far
        // tails are held to the same standard as the center.
        const double tail = 0.5 * std::erfc(std::fabs(x) / std::sqrt(2.0));
        EXPECT_NEAR(tail / std::min(p, 1.0 - p), 1.0, 1e-6) << "p " << p;
        EXPECT_EQ(x < 0.0, p < 0.5) << "p " << p;
    }
    const NormalTable& table = normal_table();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const double p = 0.5 + static_cast<double>(i) / (2.0 * kNormalCells);
        ASSERT_NEAR(normal_cdf(table[i]), p, 1e-9) << "entry " << i;
    }
}

TEST(SensorNoise, ExtremeBitPatternsStayFiniteAndOrdered) {
    const NormalTable& table = normal_table();
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    // w = 0 is the median, of either sign.
    EXPECT_EQ(normal_from_bits(0, table), 0.0);
    EXPECT_EQ(normal_from_bits(kSign, table), 0.0);
    // The largest w is the deepest tail 64 bits reach: mass 2^-64.
    const double deepest = normal_from_bits(kSign - 1, table);
    ASSERT_TRUE(std::isfinite(deepest));
    EXPECT_NEAR(normal_cdf(-deepest) / 0x1p-64, 1.0, 1e-6);
    EXPECT_EQ(normal_from_bits(~std::uint64_t{0}, table), -deepest);
    // 32-bit boundary words, where a 32-bit uniform would hit u = 1.
    for (const std::uint64_t bits : {std::uint64_t{0xFFFFFFFF}, std::uint64_t{0xFFFFFFFF00000000},
                                     std::uint64_t{0x7FFFFFFF00000000}}) {
        EXPECT_TRUE(std::isfinite(normal_from_bits(bits, table))) << std::hex << bits;
    }
    // Strictly increasing in w across every cell, and continuous where
    // the interpolated table hands over to the computed tail.
    const int frac_bits = 63 - kNormalCellBits;
    double previous = -1.0;
    for (std::uint64_t cell = 0; cell < kNormalCells; ++cell) {
        const double at = normal_from_bits(cell << frac_bits, table);
        EXPECT_GT(at, previous) << "cell " << cell;
        EXPECT_LE(normal_from_bits((cell << frac_bits) - 1, table), at) << "cell " << cell;
        previous = at;
    }
    const std::uint64_t seam = (kNormalCells - kNormalTailCells) << frac_bits;
    EXPECT_NEAR(normal_from_bits(seam, table) - normal_from_bits(seam - 1, table), 0.0, 1e-12);
}

TEST(SensorNoise, InterpolationStaysWithinItsErrorBound) {
    // Mid-cell is where linear interpolation strays furthest from the
    // exact quantile Φ⁻¹((1 + w) / 2).
    const NormalTable& table = normal_table();
    const int frac_bits = 63 - kNormalCellBits;
    for (std::uint64_t cell = 0; cell < kNormalCells; ++cell) {
        const std::uint64_t bits = (cell << frac_bits) | (std::uint64_t{1} << (frac_bits - 1));
        const double w = (static_cast<double>(cell) + 0.5) / static_cast<double>(kNormalCells);
        const double exact = normal_quantile(0.5 + w / 2.0);
        ASSERT_NEAR(normal_from_bits(bits, table), exact, 2e-3) << "cell " << cell;
    }
}

TEST(SensorNoise, MomentsMatchStandardNormal) {
    const std::vector<double> z = noise_block();
    const double n = static_cast<double>(z.size());
    double sum = 0.0;
    for (const double v : z) sum += v;
    const double mean = sum / n;
    double m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (const double v : z) {
        const double d = v - mean;
        m2 += d * d;
        m3 += d * d * d;
        m4 += d * d * d * d;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    // About six standard errors at n = 1e6: sqrt(1/n), sqrt(2/n),
    // sqrt(6/n) and sqrt(24/n).
    EXPECT_NEAR(mean, 0.0, 0.006);
    EXPECT_NEAR(m2, 1.0, 0.009);
    EXPECT_NEAR(m3 / std::pow(m2, 1.5), 0.0, 0.015);
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.03);
}

TEST(SensorNoise, KolmogorovSmirnovAgainstStandardNormal) {
    std::vector<double> z = noise_block();
    std::sort(z.begin(), z.end());
    const double n = static_cast<double>(z.size());
    double d = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
        const double f = normal_cdf(z[i]);
        d = std::max({d, static_cast<double>(i + 1) / n - f, f - static_cast<double>(i) / n});
    }
    // 1.95 / sqrt(n) is the KS critical value at alpha = 0.001.
    EXPECT_LT(d, 1.95 / std::sqrt(n));
}

TEST(SensorNoise, NeighbouringSamplesAreUncorrelated) {
    const std::vector<double> z = noise_block();
    std::vector<double> a, b;
    const auto lag = [&](int dx, int dy, int dc) {
        a.clear();
        b.clear();
        for (int y = 0; y + dy < kBlockH; ++y) {
            for (int x = 0; x + dx < kBlockW; ++x) {
                for (int c = 0; c + dc < 3; ++c) {
                    a.push_back(block_at(z, x, y, c));
                    b.push_back(block_at(z, x + dx, y + dy, c + dc));
                }
            }
        }
        return correlation(a, b);
    };
    // At least 668k pairs each: 0.006 is about five standard errors.
    EXPECT_NEAR(lag(1, 0, 0), 0.0, 0.006) << "adjacent pixels in a row";
    EXPECT_NEAR(lag(0, 1, 0), 0.0, 0.006) << "adjacent rows";
    EXPECT_NEAR(lag(0, 0, 1), 0.0, 0.006) << "adjacent channels";
}

TEST(SensorNoise, PixelNoiseIsAPureFunctionOfKeyPixelChannel) {
    // Flat shading (factor exactly 1) isolates the noise: each byte must
    // be round(content + sigma * sensor_noise(key, x, y, c)), in a whole
    // render, in a lazy frame filled one odd-sized region at a time, and
    // in a larger frame that shares the same pixels.
    PlateScene scene;
    scene.vignette = 0.0;
    scene.illum_gradient = {0.0, 0.0};
    scene.noise_sigma = 2.5;
    PlateScene clean = scene;
    clean.noise_sigma = 0.0;
    PlateScene larger = scene;
    larger.width = 1000;
    larger.height = 700;
    std::vector<Rgb8> colors;
    Rng color_rng(5);
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256))});
    }

    constexpr std::uint64_t kSeed = 17;
    const std::uint64_t key = Rng(kSeed).next();
    Rng rng_content(1), rng_one_shot(kSeed), rng_larger(kSeed);
    const Image content = render_plate(clean, colors, rng_content);
    const Image one_shot = render_plate(scene, colors, rng_one_shot);
    LazyFrame lazy(scene, colors, key);
    for (int y = 0; y < scene.height; y += 97) {
        for (int x = scene.width - 1; x >= 0; x -= 71) {
            lazy.materialize({x - 70, y, x + 1, y + 97});
        }
    }
    ASSERT_EQ(lazy.tiles_rendered(), lazy.tile_count());
    const Image& tiled = lazy.image();
    const Image large = render_plate(larger, colors, rng_larger);

    std::size_t mismatches = 0;
    std::size_t noisy = 0;
    for (int y = 0; y < scene.height; ++y) {
        for (int x = 0; x < scene.width; ++x) {
            const Rgb8 base = content.pixel(x, y);
            const std::uint8_t channels[3] = {base.r, base.g, base.b};
            std::uint8_t want[3] = {};
            for (int c = 0; c < 3; ++c) {
                const double noise = scene.noise_sigma * sensor_noise(key, x, y, c);
                const long q = sdl::linalg::round_half_away(channels[c] + noise);
                want[c] = static_cast<std::uint8_t>(std::clamp(q, 0L, 255L));
                if (want[c] != channels[c]) ++noisy;
            }
            const Rgb8 expected{want[0], want[1], want[2]};
            if (!(one_shot.pixel(x, y) == expected) || !(tiled.pixel(x, y) == expected) ||
                !(large.pixel(x, y) == expected)) {
                ++mismatches;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(noisy, 0u);  // the comparison did see noise
}

TEST(SensorNoise, RenderConsumesExactlyOneDraw) {
    const PlateScene base;
    const PlateScene dense = scene_for_plate(base, 16, 24);  // upscaled 384-well frame
    for (const PlateScene& scene : {base, dense}) {
        const std::vector<Rgb8> colors(static_cast<std::size_t>(scene.geometry.well_count()),
                                       Rgb8{90, 140, 60});
        Rng one_shot(23), twin(23);
        (void)render_plate(scene, colors, one_shot);
        (void)twin.next();
        EXPECT_EQ(one_shot.next(), twin.next()) << scene.width << "x" << scene.height;
    }
}

// ------------------------------------------------- hot-path identity
//
// The zero-allocation vision pipeline (scratch pools, region-restricted
// marker detection, base-raster render cache) carries one contract:
// every output is bitwise identical to the one-shot allocating flow.

namespace {

/// Well contents of a varied frame sequence: rotating fills and colors
/// per frame index.
struct FrameContents {
    std::vector<Rgb8> colors;
    std::vector<bool> filled;
};

FrameContents hot_path_contents(const PlateScene& scene, int frame_index) {
    Rng color_rng(1000 + static_cast<std::uint64_t>(frame_index) * 17);
    FrameContents contents;
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        contents.colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                                   static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                                   static_cast<std::uint8_t>(color_rng.uniform_int(256))});
        contents.filled.push_back(i <= (frame_index * 13) % scene.geometry.well_count());
    }
    return contents;
}

Image hot_path_frame(const PlateScene& scene, int frame_index, Rng& rng) {
    const FrameContents contents = hot_path_contents(scene, frame_index);
    return render_plate(scene, contents.colors, rng, &contents.filled);
}

void expect_same_readout(const WellReadout& a, const WellReadout& b,
                         const char* what, int frame_index) {
    ASSERT_EQ(a.ok, b.ok) << what << " frame " << frame_index;
    EXPECT_EQ(a.error, b.error);
    ASSERT_EQ(a.colors.size(), b.colors.size()) << what << " frame " << frame_index;
    for (std::size_t i = 0; i < a.colors.size(); ++i) {
        EXPECT_EQ(a.colors[i], b.colors[i]) << what << " frame " << frame_index
                                            << " well " << i;
        EXPECT_EQ(a.centers[i].x, b.centers[i].x) << what << " well " << i;
        EXPECT_EQ(a.centers[i].y, b.centers[i].y) << what << " well " << i;
    }
    EXPECT_EQ(a.hough_circles_found, b.hough_circles_found) << what;
    EXPECT_EQ(a.wells_with_circle, b.wells_with_circle) << what;
    EXPECT_EQ(a.wells_rescued, b.wells_rescued) << what;
    EXPECT_EQ(a.grid_residual_px, b.grid_residual_px) << what;
    if (a.ok) {
        EXPECT_EQ(a.marker.id, b.marker.id);
        EXPECT_EQ(a.marker.side, b.marker.side);
        EXPECT_EQ(a.marker.angle, b.marker.angle);
        EXPECT_EQ(a.marker.center.x, b.marker.center.x);
        EXPECT_EQ(a.marker.center.y, b.marker.center.y);
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(a.marker.corners[c].x, b.marker.corners[c].x);
            EXPECT_EQ(a.marker.corners[c].y, b.marker.corners[c].y);
        }
    }
}

}  // namespace

TEST(HotPath, BlurScratchBitwiseMatchesOneShot) {
    Rng rng(71);
    BlurScratch scratch;
    GrayImage out;
    // Alternating sizes and sigmas stress buffer reuse across shapes.
    const int sizes[][2] = {{64, 48}, {31, 77}, {64, 48}, {5, 5}, {200, 3}};
    const double sigmas[] = {0.8, 1.0, 2.5, 0.8, 1.3};
    for (int round = 0; round < 5; ++round) {
        GrayImage img(sizes[round][0], sizes[round][1]);
        for (float& v : img.values()) v = static_cast<float>(rng.uniform());
        const GrayImage want = gaussian_blur(img, sigmas[round]);
        gaussian_blur(img, sigmas[round], out, scratch);
        ASSERT_EQ(out.width(), want.width());
        ASSERT_EQ(out.height(), want.height());
        for (int y = 0; y < want.height(); ++y) {
            for (int x = 0; x < want.width(); ++x) {
                ASSERT_EQ(out.at(x, y), want.at(x, y))
                    << "round " << round << " (" << x << "," << y << ")";
            }
        }
    }
}

TEST(HotPath, SobelAndAdaptiveThresholdScratchBitwise) {
    Rng rng(73);
    Gradients grad;
    BinaryImage mask;
    std::vector<double> integral;
    for (const int size : {40, 17, 40, 9}) {
        GrayImage img(size, size + 3);
        for (float& v : img.values()) v = static_cast<float>(rng.uniform());
        const Gradients want = sobel(img);
        sobel(img, grad);
        for (int y = 0; y < img.height(); ++y) {
            for (int x = 0; x < img.width(); ++x) {
                ASSERT_EQ(grad.gx.at(x, y), want.gx.at(x, y));
                ASSERT_EQ(grad.gy.at(x, y), want.gy.at(x, y));
            }
        }
        const BinaryImage want_mask = adaptive_threshold(img, 9, 0.05F);
        adaptive_threshold(img, 9, 0.05F, mask, integral);
        for (int y = 0; y < img.height(); ++y) {
            for (int x = 0; x < img.width(); ++x) {
                ASSERT_EQ(mask.at(x, y), want_mask.at(x, y));
            }
        }
    }
}

// ------------------------------------------------------- lazy frames
//
// A LazyFrame renders tiles on demand; every byte it materializes must
// equal the same byte of a whole-frame render, whatever the tile order.

namespace {

/// One pinned render: a scene, its well colors, an optional fill mask
/// (empty = every well filled) and the seed of the render's generator.
struct PinnedRender {
    const char* name;
    PlateScene scene;
    std::vector<Rgb8> colors;
    std::vector<bool> filled;
    std::uint64_t seed;

    [[nodiscard]] const std::vector<bool>* mask() const {
        return filled.empty() ? nullptr : &filled;
    }
};

PinnedRender pinned_render(const char* name, PlateScene scene, std::uint64_t seed,
                           int fill_mod) {
    PinnedRender p{name, scene, {}, {}, seed};
    Rng color_rng(seed * 31 + 7);
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        p.colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                            static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                            static_cast<std::uint8_t>(color_rng.uniform_int(256))});
        if (fill_mod > 0) p.filled.push_back(i % fill_mod != 0);
    }
    return p;
}

/// The three plate formats, a rotated scene with a partial fill mask, a
/// glitched scene (plate and marker off-frame, as CameraSim moves them)
/// and a drifted one (ring-light gradient shifted, as drift_per_frame
/// does).
std::vector<PinnedRender> pinned_renders() {
    const PlateScene base;
    PlateScene rotated = base;
    rotated.angle_rad = 0.07;
    PlateScene glitched = base;
    glitched.marker_center = {-10000.0, -10000.0};
    PlateScene drifted = base;
    drifted.illum_gradient.x += 0.0125;
    return {
        pinned_render("96", base, 101, 0),
        pinned_render("384", scene_for_plate(base, 16, 24), 102, 4),
        pinned_render("1536", scene_for_plate(base, 32, 48), 103, 5),
        pinned_render("rotated", rotated, 104, 3),
        pinned_render("glitched", glitched, 105, 2),
        pinned_render("drifted", drifted, 106, 0),
    };
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Checks a lazy frame against the whole render of the same recipe:
/// random rects (1-px, edge-straddling, empty and larger ones) in random
/// order, each crop compared as soon as it is materialized, then the
/// untouched tiles (still zero), then every remaining tile in random
/// order and the whole raster.
void expect_lazy_matches_whole(LazyFrame& lazy, const Image& whole, Rng& pick,
                               const std::string& what) {
    ASSERT_EQ(lazy.width(), whole.width()) << what;
    ASSERT_EQ(lazy.height(), whole.height()) << what;
    const int w = whole.width();
    const int h = whole.height();
    const auto coord = [&pick](int lo, int hi) {  // uniform in [lo, hi]
        return static_cast<int>(pick.uniform_int(std::int64_t{lo}, std::int64_t{hi}));
    };
    std::vector<Rect> rects;
    for (int i = 0; i < 8; ++i) {  // 1-px
        const int x = coord(0, w - 1);
        const int y = coord(0, h - 1);
        rects.push_back({x, y, x + 1, y + 1});
    }
    for (int i = 0; i < 6; ++i) {  // straddling a frame edge
        const int x = coord(-40, w - 1);
        const int y = coord(-40, h - 1);
        rects.push_back({x, y, x + coord(1, 120), y + coord(1, 120)});
        rects.push_back(
            {w - coord(1, 50), h - coord(1, 50), w + coord(0, 50), h + coord(0, 50)});
    }
    const int x = coord(0, w - 1);
    const int y = coord(0, h - 1);
    rects.push_back({x, y, x, y + 10});          // empty: zero width
    rects.push_back({x, y, x + 10, y - 5});      // empty: inverted
    rects.push_back({w + 5, 0, w + 50, h});      // empty: off-frame
    rects.push_back({-50, -50, -1, -1});         // empty: off-frame
    for (int i = 0; i < 10; ++i) {  // larger interior rects
        const int x0 = coord(0, w - 1);
        const int y0 = coord(0, h - 1);
        rects.push_back({x0, y0, x0 + coord(1, 300), y0 + coord(1, 300)});
    }
    std::shuffle(rects.begin(), rects.end(), pick);

    for (const Rect& rect : rects) {
        lazy.materialize(rect);
        const Rect r = rect.clipped(w, h);
        for (int py = r.y0; py < r.y1; ++py) {
            for (int px = r.x0; px < r.x1; ++px) {
                ASSERT_EQ(lazy.image().pixel(px, py), whole.pixel(px, py))
                    << what << " (" << px << "," << py << ") after rect [" << rect.x0
                    << "," << rect.y0 << "," << rect.x1 << "," << rect.y1 << ")";
            }
        }
    }
    EXPECT_LT(lazy.tiles_rendered(), lazy.tile_count()) << what;

    // A tile writes only its own pixels: the rest of the raster is zero.
    const auto frame_pixels = static_cast<std::size_t>(w * h);
    const auto index = [w](int px, int py) { return static_cast<std::size_t>(py * w + px); };
    std::vector<std::uint8_t> rendered(frame_pixels, 0);
    std::size_t pixels = 0;
    for (const Rect& tile : lazy.rendered_tiles()) {
        for (int py = tile.y0; py < tile.y1; ++py) {
            for (int px = tile.x0; px < tile.x1; ++px) {
                rendered[index(px, py)] = 1;
                ++pixels;
            }
        }
    }
    EXPECT_EQ(pixels, lazy.pixels_rendered()) << what;
    for (int py = 0; py < h; ++py) {
        for (int px = 0; px < w; ++px) {
            const Rgb8 want = rendered[index(px, py)] != 0 ? whole.pixel(px, py) : Rgb8{};
            ASSERT_EQ(lazy.image().pixel(px, py), want)
                << what << " (" << px << "," << py << ")";
        }
    }

    std::vector<Rect> tiles;
    for (int ty = 0; ty < h; ty += LazyFrame::kTile) {
        for (int tx = 0; tx < w; tx += LazyFrame::kTile) {
            tiles.push_back({tx, ty, tx + LazyFrame::kTile, ty + LazyFrame::kTile});
        }
    }
    std::shuffle(tiles.begin(), tiles.end(), pick);
    for (const Rect& tile : tiles) lazy.materialize(tile);
    EXPECT_EQ(lazy.tiles_rendered(), lazy.tile_count()) << what;
    EXPECT_EQ(lazy.pixels_rendered(), frame_pixels) << what;
    const auto got = lazy.image().bytes();
    const auto want = whole.bytes();
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << what;
}

}  // namespace

TEST(LazyFrame, RenderPlateMatchesPinnedDigests) {
    // FNV-1a-64 of render_plate's bytes, recorded from the whole-frame
    // renderer (render_base, draw_wells, apply_sensor_model) that the tile
    // renderer replaced: the new renderer is checked against the old one,
    // not against itself.
    const std::map<std::string, std::uint64_t> pinned = {
        {"96", 0xb3e2f8f6bcd795d4ULL},      {"384", 0x3c959c53cb77cf8bULL},
        {"1536", 0x038e104dde8c179eULL},    {"rotated", 0x85175f93ecb544ddULL},
        {"glitched", 0xc59506b33be1a343ULL}, {"drifted", 0xef58a68d9484f957ULL},
    };
    for (const PinnedRender& p : pinned_renders()) {
        Rng rng(p.seed);
        const Image frame = render_plate(p.scene, p.colors, rng, p.mask());
        EXPECT_EQ(fnv1a64(frame.bytes()), pinned.at(p.name))
            << p.name << ": got 0x" << std::hex << fnv1a64(frame.bytes());
    }
}

TEST(LazyFrame, RegionsMatchWholeRenderInAnyTileOrder) {
    Rng pick(0x7115);
    for (const PinnedRender& p : pinned_renders()) {
        Rng rng(p.seed);
        const Image whole = render_plate(p.scene, p.colors, rng, p.mask());
        LazyFrame lazy(p.scene, p.colors, Rng(p.seed).next(), p.mask());
        expect_lazy_matches_whole(lazy, whole, pick, p.name);
    }
}

TEST(LazyFrame, FrameSequenceMatchesWholeRenders) {
    // A camera-like sequence from one generator: changing well contents
    // and fill, the marker moved and occluded, the gradient drifting.
    // Lazy frames keyed from a twin stream match whole renders frame by
    // frame.
    PlateScene base;
    base.angle_rad = 0.04;
    PlateScene moved = base;
    moved.marker_center = {200.0, 260.0};
    Rng rng_whole(91), rng_lazy(91), pick(92);
    for (int frame_index = 0; frame_index < 10; ++frame_index) {
        PlateScene scene = frame_index % 3 == 1 ? moved : base;
        if (frame_index == 4) scene.marker_center = {-10000.0, -10000.0};
        scene.illum_gradient.x += 0.002 * frame_index;
        Rng color_rng(2000 + static_cast<std::uint64_t>(frame_index));
        std::vector<Rgb8> colors;
        std::vector<bool> filled;
        for (int i = 0; i < scene.geometry.well_count(); ++i) {
            colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                              static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                              static_cast<std::uint8_t>(color_rng.uniform_int(256))});
            filled.push_back((i + frame_index) % 3 != 0);
        }
        const Image whole = render_plate(scene, colors, rng_whole, &filled);
        LazyFrame lazy(scene, colors, rng_lazy.next(), &filled);
        expect_lazy_matches_whole(lazy, whole, pick,
                                  "frame " + std::to_string(frame_index));
    }
}

TEST(LazyFrame, RejectsMismatchedRecipe) {
    const PlateScene scene;
    const std::vector<Rgb8> short_colors(95, Rgb8{1, 2, 3});
    EXPECT_THROW(LazyFrame(scene, short_colors, 1), sdl::support::LogicError);
    const std::vector<Rgb8> colors(96, Rgb8{1, 2, 3});
    const std::vector<bool> short_mask(95, true);
    EXPECT_THROW(LazyFrame(scene, colors, 1, &short_mask), sdl::support::LogicError);
}

TEST(HotPath, PlateReaderRoiPathBitwiseAcrossFrameSequence) {
    // The session reader must serve every frame — first (cold), steady
    // state (ROI hits), a glitched frame (marker gone), and the recovery
    // frame after it — with bits identical to one-shot read_plate.
    PlateScene scene;
    scene.angle_rad = -0.03;
    scene.noise_sigma = 2.5;
    WellReadParams params;
    params.geometry = scene.geometry;
    PlateReader reader(params);
    Rng rng(79);
    for (int frame_index = 0; frame_index < 12; ++frame_index) {
        PlateScene frame_scene = scene;
        const bool glitched = frame_index == 5;
        if (glitched) frame_scene.marker_center = {-10000.0, -10000.0};
        const Image frame = hot_path_frame(frame_scene, frame_index, rng);
        const WellReadout fresh = read_plate(frame, params);
        const WellReadout session = reader.read(frame);
        expect_same_readout(session, fresh, "session", frame_index);
        EXPECT_EQ(session.ok, !glitched) << frame_index;
        if (frame_index > 0 && !glitched) {
            EXPECT_TRUE(session.roi_fast_path) << frame_index;
        }
    }
    // Cold start and the glitch are the only full scans. The failed scan
    // keeps the marker hint, so the frame after the glitch rides the
    // marker-ROI fast path like every other.
    EXPECT_EQ(reader.full_scans(), 2u);
    EXPECT_EQ(reader.roi_hits(), 10u);
}

TEST(HotPath, LazyReadMatchesReadPlateOnWholeFrames) {
    // Per plate format, a 12-frame sequence with ring-light drift and one
    // glitched frame: a reader on lazy frames, seeded with the calibrated
    // marker pose, against one-shot read_plate on the whole render. Only
    // the glitched frame needs a full scan, and only it renders whole.
    PlateScene base;
    base.angle_rad = 0.02;
    base.noise_sigma = 2.5;
    for (const auto& [rows, cols] :
         {std::pair{8, 12}, std::pair{16, 24}, std::pair{32, 48}}) {
        const PlateScene scene = scene_for_plate(base, rows, cols);
        const std::string what = std::to_string(rows * cols) + "-well";
        WellReadParams params;
        params.geometry = scene.geometry;
        PlateReader reader(params, calibrated_marker_pose(scene));
        Rng rng_whole(131), rng_lazy(131);
        for (int frame_index = 0; frame_index < 12; ++frame_index) {
            PlateScene frame_scene = scene;
            frame_scene.illum_gradient.x += 0.003 * frame_index;
            const bool glitched = frame_index == 5;
            if (glitched) frame_scene.marker_center = {-10000.0, -10000.0};
            const FrameContents contents = hot_path_contents(frame_scene, frame_index);
            const Image whole =
                render_plate(frame_scene, contents.colors, rng_whole, &contents.filled);
            LazyFrame lazy(frame_scene, contents.colors, rng_lazy.next(),
                           &contents.filled);
            const WellReadout want = read_plate(whole, params);
            const WellReadout got = reader.read(lazy);
            expect_same_readout(got, want, what.c_str(), frame_index);
            EXPECT_EQ(got.ok, !glitched) << what << " frame " << frame_index;
            EXPECT_EQ(got.roi_fast_path, !glitched) << what << " frame " << frame_index;
            if (glitched) {
                EXPECT_EQ(lazy.tiles_rendered(), lazy.tile_count()) << what;
            } else {
                EXPECT_LT(2 * lazy.tiles_rendered(), lazy.tile_count())
                    << what << " frame " << frame_index;
            }
        }
        EXPECT_EQ(reader.full_scans(), 1u) << what;
        EXPECT_EQ(reader.roi_hits(), 11u) << what;
    }
}

TEST(HotPath, CalibratedPoseServesFirstFrameFromRoi) {
    PlateScene scene;
    scene.angle_rad = -0.05;
    const MarkerDetection pose = calibrated_marker_pose(scene);
    WellReadParams params;
    params.geometry = scene.geometry;
    const FrameContents contents = hot_path_contents(scene, 3);
    Rng rng(137);
    const Image whole = render_plate(scene, contents.colors, rng, &contents.filled);
    const WellReadout want = read_plate(whole, params);
    ASSERT_TRUE(want.ok);
    // The pose is where the detector finds the marker (whose boundary
    // quad sits a pixel or so inside the drawn square).
    EXPECT_EQ(want.marker.id, pose.id);
    EXPECT_NEAR(want.marker.center.x, pose.center.x, 0.5);
    EXPECT_NEAR(want.marker.center.y, pose.center.y, 0.5);
    EXPECT_NEAR(want.marker.side, pose.side, 3.0);

    PlateReader reader(params, pose);
    LazyFrame lazy(scene, contents.colors, Rng(137).next(), &contents.filled);
    const WellReadout got = reader.read(lazy);
    expect_same_readout(got, want, "calibrated", 0);
    EXPECT_TRUE(got.roi_fast_path);
    EXPECT_EQ(reader.full_scans(), 0u);
    EXPECT_EQ(reader.roi_hits(), 1u);
}

TEST(HotPath, SteadyStateReadMaterializesPinnedTiles) {
    // The tiles a steady-state read of the default scene renders, per
    // format: the marker search box, the plate ROI and the readout disks.
    // Pinned so that a slide back to whole-frame rendering fails here.
    const struct {
        int rows, cols;
        std::size_t tiles, of;
    } formats[] = {{8, 12, 54, 130}, {16, 24, 168, 475}, {32, 48, 519, 1900}};
    for (const auto& f : formats) {
        const PlateScene scene = scene_for_plate(PlateScene{}, f.rows, f.cols);
        WellReadParams params;
        params.geometry = scene.geometry;
        PlateReader reader(params, calibrated_marker_pose(scene));
        const FrameContents contents = hot_path_contents(scene, 7);
        for (int frame_index = 0; frame_index < 2; ++frame_index) {
            const std::uint64_t key = 1000 + static_cast<std::uint64_t>(frame_index);
            LazyFrame lazy(scene, contents.colors, key, &contents.filled);
            const WellReadout readout = reader.read(lazy);
            ASSERT_TRUE(readout.ok) << f.rows * f.cols;
            EXPECT_TRUE(readout.roi_fast_path) << f.rows * f.cols;
            EXPECT_EQ(lazy.tile_count(), f.of) << f.rows * f.cols;
            EXPECT_EQ(lazy.tiles_rendered(), f.tiles)
                << f.rows * f.cols << "-well frame " << frame_index;
        }
    }
}

TEST(HotPath, RegionRestrictedDetectionMatchesFullFrame) {
    PlateScene scene;
    scene.noise_sigma = 2.0;
    std::vector<Rgb8> colors(96, Rgb8{120, 60, 180});
    Rng rng(83);
    const Image frame = render_plate(scene, colors, rng);

    const auto full = detect_markers(frame, MarkerDictionary::standard());
    ASSERT_EQ(full.size(), 1u);

    // Region comfortably around the marker: must reproduce the detection
    // exactly, in frame coordinates.
    const int cx = static_cast<int>(full[0].center.x);
    const int cy = static_cast<int>(full[0].center.y);
    const int reach = static_cast<int>(full[0].side) + marker_region_margin() + 10;
    MarkerScratch scratch;
    std::vector<MarkerDetection> regional;
    detect_markers_in_region(frame, MarkerDictionary::standard(),
                             {cx - reach, cy - reach, cx + reach, cy + reach}, scratch,
                             regional);
    ASSERT_EQ(regional.size(), 1u);
    EXPECT_EQ(regional[0].id, full[0].id);
    EXPECT_EQ(regional[0].side, full[0].side);
    EXPECT_EQ(regional[0].angle, full[0].angle);
    EXPECT_EQ(regional[0].center.x, full[0].center.x);
    EXPECT_EQ(regional[0].center.y, full[0].center.y);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(regional[0].corners[c].x, full[0].corners[c].x);
        EXPECT_EQ(regional[0].corners[c].y, full[0].corners[c].y);
    }

    // A region that slices through the marker must skip the contaminated
    // blob (no subtly-different detection).
    std::vector<MarkerDetection> sliced;
    detect_markers_in_region(frame, MarkerDictionary::standard(),
                             {cx - reach, cy - reach, cx, cy}, scratch, sliced);
    EXPECT_TRUE(sliced.empty());
}
