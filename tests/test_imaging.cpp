// Tests for the vision substrate: buffers, I/O, filters, components,
// quads/homography, fiducial markers, Hough circles, grid fitting and the
// full plate-reading pipeline on synthetic camera frames.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <numbers>

#include "color/mixing.hpp"
#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/fiducial.hpp"
#include "imaging/filters.hpp"
#include "imaging/gridfit.hpp"
#include "imaging/hough.hpp"
#include "imaging/image.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/ppm.hpp"
#include "imaging/quad.hpp"
#include "imaging/well_reader.hpp"
#include "support/common.hpp"
#include "support/random.hpp"

using namespace sdl::imaging;
using sdl::color::Rgb8;
using sdl::support::Rng;

// ------------------------------------------------------------------ image

TEST(ImageBuffer, PixelRoundTrip) {
    Image img(10, 6, {1, 2, 3});
    EXPECT_EQ(img.pixel(0, 0), (Rgb8{1, 2, 3}));
    img.set_pixel(9, 5, {200, 100, 50});
    EXPECT_EQ(img.pixel(9, 5), (Rgb8{200, 100, 50}));
    EXPECT_TRUE(img.in_bounds(9, 5));
    EXPECT_FALSE(img.in_bounds(10, 5));
    EXPECT_FALSE(img.in_bounds(-1, 0));
}

TEST(ImageBuffer, GrayConversionWeights) {
    Image img(1, 1, {255, 0, 0});
    EXPECT_NEAR(to_gray(img).at(0, 0), 0.299F, 1e-5F);
    Image green(1, 1, {0, 255, 0});
    EXPECT_NEAR(to_gray(green).at(0, 0), 0.587F, 1e-5F);
}

TEST(ImageBuffer, BilinearSampling) {
    GrayImage g(2, 2);
    g.at(0, 0) = 0.0F;
    g.at(1, 0) = 1.0F;
    g.at(0, 1) = 0.0F;
    g.at(1, 1) = 1.0F;
    EXPECT_NEAR(sample_bilinear(g, 0.5, 0.5), 0.5F, 1e-6F);
    EXPECT_NEAR(sample_bilinear(g, 0.0, 0.0), 0.0F, 1e-6F);
    EXPECT_NEAR(sample_bilinear(g, -5.0, 0.0), 0.0F, 1e-6F);  // clamped
}

TEST(ImageBuffer, MeanColorInDisk) {
    Image img(20, 20, {10, 20, 30});
    fill_circle(img, {10, 10}, 5, {100, 120, 140});
    const Rgb8 mean = mean_color_in_disk(img, 10, 10, 3);
    EXPECT_NEAR(mean.r, 100, 2);
    EXPECT_NEAR(mean.g, 120, 2);
    EXPECT_NEAR(mean.b, 140, 2);
}

// -------------------------------------------------------------------- ppm

TEST(Ppm, EncodesHeaderThenRgbBytes) {
    Rng rng(3);
    Image img(13, 7);
    for (int y = 0; y < 7; ++y) {
        for (int x = 0; x < 13; ++x) {
            img.set_pixel(x, y,
                          {static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})),
                           static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})),
                           static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}))});
        }
    }
    const std::string header = "P6\n13 7\n255\n";
    const std::string bytes = encode_ppm(img);
    ASSERT_EQ(bytes.size(), header.size() + 13u * 7u * 3u);
    EXPECT_EQ(bytes.substr(0, header.size()), header);
    for (int y = 0; y < 7; ++y) {
        for (int x = 0; x < 13; ++x) {
            const std::size_t at = header.size() + 3u * static_cast<std::size_t>(y * 13 + x);
            const Rgb8 px{static_cast<std::uint8_t>(bytes[at]),
                          static_cast<std::uint8_t>(bytes[at + 1]),
                          static_cast<std::uint8_t>(bytes[at + 2])};
            EXPECT_EQ(px, img.pixel(x, y));
        }
    }
}

TEST(Ppm, SaveWritesTheEncodedBytes) {
    const Image img(4, 4, {9, 8, 7});
    const std::string path = ::testing::TempDir() + "/sdl_test.ppm";
    save_ppm(img, path);
    std::ifstream file(path, std::ios::binary);
    const std::string written((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(written, encode_ppm(img));
    EXPECT_THROW(save_ppm(img, "/nonexistent/dir/file.ppm"), sdl::support::Error);
}

// ---------------------------------------------------------------- filters

TEST(Filters, GaussianBlurPreservesMeanAndSmooths) {
    Rng rng(5);
    GrayImage img(32, 32);
    for (auto& v : img.values()) v = static_cast<float>(rng.uniform());
    const GrayImage blurred = gaussian_blur(img, 1.5);

    double mean_in = 0.0, mean_out = 0.0;
    for (const float v : img.values()) mean_in += v;
    for (const float v : blurred.values()) mean_out += v;
    EXPECT_NEAR(mean_out / 1024.0, mean_in / 1024.0, 0.02);

    // Variance must drop substantially.
    double var_in = 0.0, var_out = 0.0;
    for (const float v : img.values()) var_in += (v - mean_in / 1024) * (v - mean_in / 1024);
    for (const float v : blurred.values())
        var_out += (v - mean_out / 1024) * (v - mean_out / 1024);
    EXPECT_LT(var_out, var_in * 0.3);
}

TEST(Filters, SobelDetectsVerticalEdge) {
    GrayImage img(10, 10);
    for (int y = 0; y < 10; ++y) {
        for (int x = 5; x < 10; ++x) img.at(x, y) = 1.0F;
    }
    const Gradients g = sobel(img);
    EXPECT_GT(g.gx.at(5, 5), 1.0F);         // strong horizontal derivative
    EXPECT_NEAR(g.gy.at(5, 5), 0.0F, 1e-5F);  // no vertical derivative
    EXPECT_NEAR(g.gx.at(2, 5), 0.0F, 1e-5F);  // flat region
}

TEST(Filters, AdaptiveThresholdFindsDarkSpotDespiteGradient) {
    // A dark dot on a bright background with a strong global ramp: a
    // fixed threshold fails, the adaptive one doesn't.
    GrayImage img(64, 64);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            img.at(x, y) = 0.4F + 0.5F * static_cast<float>(x) / 64.0F;
        }
    }
    for (int y = 30; y < 34; ++y) {
        for (int x = 54; x < 58; ++x) img.at(x, y) -= 0.3F;  // dark spot, bright side
    }
    const BinaryImage mask = adaptive_threshold(img, 15, 0.1F);
    EXPECT_TRUE(mask.at(55, 31));
    EXPECT_FALSE(mask.at(10, 10));
    EXPECT_FALSE(mask.at(60, 60));
}

TEST(Filters, AdaptiveThresholdValidatesWindow) {
    GrayImage img(8, 8);
    EXPECT_THROW((void)adaptive_threshold(img, 4, 0.1F), sdl::support::LogicError);
}

// ------------------------------------------------------------- components

TEST(Components, LabelsTwoSeparateBlobs) {
    BinaryImage mask(20, 10);
    for (int y = 1; y < 4; ++y)
        for (int x = 1; x < 4; ++x) mask.set(x, y, true);
    for (int y = 5; y < 9; ++y)
        for (int x = 10; x < 16; ++x) mask.set(x, y, true);
    const Labeling lab = label_components(mask);
    ASSERT_EQ(lab.blobs.size(), 2u);
    EXPECT_EQ(lab.blobs[0].area, 9u);
    EXPECT_EQ(lab.blobs[1].area, 24u);
    EXPECT_NEAR(lab.blobs[0].centroid.x, 2.0, 1e-9);
    EXPECT_EQ(lab.label_at(2, 2), 0);
    EXPECT_EQ(lab.label_at(12, 6), 1);
    EXPECT_EQ(lab.label_at(0, 0), -1);
}

TEST(Components, DiagonalPixelsAreConnected) {
    BinaryImage mask(4, 4);
    mask.set(0, 0, true);
    mask.set(1, 1, true);
    mask.set(2, 2, true);
    const Labeling lab = label_components(mask);
    ASSERT_EQ(lab.blobs.size(), 1u);
    EXPECT_EQ(lab.blobs[0].area, 3u);
}

TEST(Components, MinAreaFiltersSpeckle) {
    BinaryImage mask(10, 10);
    mask.set(0, 0, true);  // single-pixel speckle
    for (int y = 4; y < 8; ++y)
        for (int x = 4; x < 8; ++x) mask.set(x, y, true);
    const Labeling lab = label_components(mask, 4);
    ASSERT_EQ(lab.blobs.size(), 1u);
    EXPECT_EQ(lab.blobs[0].area, 16u);
    EXPECT_EQ(lab.label_at(0, 0), -1);  // speckle erased
}

TEST(Components, BoundaryOfSolidSquareIsItsPerimeter) {
    BinaryImage mask(12, 12);
    for (int y = 2; y < 10; ++y)
        for (int x = 2; x < 10; ++x) mask.set(x, y, true);
    const Labeling lab = label_components(mask);
    const auto boundary = boundary_pixels(lab, 0);
    // 8x8 square: perimeter pixels = 64 - 36 interior = 28.
    EXPECT_EQ(boundary.size(), 28u);
}

// ------------------------------------------------------------------ quads

TEST(Quad, ExtractsAxisAlignedSquareCorners) {
    BinaryImage mask(40, 40);
    for (int y = 10; y < 30; ++y)
        for (int x = 10; x < 30; ++x) mask.set(x, y, true);
    const Labeling lab = label_components(mask);
    const auto quad = extract_quad(boundary_pixels(lab, 0));
    ASSERT_TRUE(quad.has_value());
    EXPECT_GT(squareness(*quad), 0.9);
    EXPECT_NEAR(mean_side(*quad), 19.0, 2.0);
    // First corner nearest top-left.
    EXPECT_NEAR((*quad)[0].x, 10, 1.5);
    EXPECT_NEAR((*quad)[0].y, 10, 1.5);
}

TEST(Quad, ExtractsRotatedSquare) {
    Image img(100, 100, {255, 255, 255});
    const Vec2 c{50, 50};
    const double side = 40;
    const double angle = 0.4;
    const Vec2 ux = Vec2{1, 0}.rotated(angle);
    const Vec2 uy = Vec2{0, 1}.rotated(angle);
    const Vec2 corners[4] = {c - ux * (side / 2) - uy * (side / 2),
                             c + ux * (side / 2) - uy * (side / 2),
                             c + ux * (side / 2) + uy * (side / 2),
                             c - ux * (side / 2) + uy * (side / 2)};
    fill_quad(img, corners, {0, 0, 0});
    const GrayImage gray = to_gray(img);
    BinaryImage mask(gray.width(), gray.height());
    for (int y = 0; y < gray.height(); ++y) {
        for (int x = 0; x < gray.width(); ++x) mask.set(x, y, gray.at(x, y) < 0.5F);
    }
    const Labeling lab = label_components(mask);
    ASSERT_EQ(lab.blobs.size(), 1u);
    const auto quad = extract_quad(boundary_pixels(lab, 0));
    ASSERT_TRUE(quad.has_value());
    EXPECT_GT(squareness(*quad), 0.85);
    EXPECT_NEAR(mean_side(*quad), side, 3.0);
}

TEST(Quad, RejectsDegenerateSets) {
    std::vector<Vec2> line;
    for (int i = 0; i < 20; ++i) line.push_back({static_cast<double>(i), 2.0});
    EXPECT_FALSE(extract_quad(line).has_value());
    std::vector<Vec2> tiny{{0, 0}, {1, 0}, {0, 1}};
    EXPECT_FALSE(extract_quad(tiny).has_value());
}

TEST(Homography, MapsUnitSquareCornersExactly) {
    const Quad quad{Vec2{10, 20}, Vec2{110, 25}, Vec2{105, 130}, Vec2{8, 118}};
    const Homography h = Homography::unit_square_to(quad);
    const Vec2 p00 = h.apply({0, 0});
    const Vec2 p10 = h.apply({1, 0});
    const Vec2 p11 = h.apply({1, 1});
    const Vec2 p01 = h.apply({0, 1});
    EXPECT_NEAR(p00.x, 10, 1e-6);
    EXPECT_NEAR(p10.x, 110, 1e-6);
    EXPECT_NEAR(p11.y, 130, 1e-6);
    EXPECT_NEAR(p01.y, 118, 1e-6);
    // Center maps inside the quad.
    const Vec2 mid = h.apply({0.5, 0.5});
    EXPECT_GT(mid.x, 8);
    EXPECT_LT(mid.x, 110);
}

// -------------------------------------------------------------- fiducials

TEST(Fiducial, RotateCodeFourTimesIsIdentity) {
    const std::uint16_t code = 0xB31C;
    std::uint16_t r = code;
    for (int i = 0; i < 4; ++i) r = rotate_code_cw(r);
    EXPECT_EQ(r, code);
}

TEST(Fiducial, HammingBasics) {
    EXPECT_EQ(hamming(0x0000, 0xFFFF), 16);
    EXPECT_EQ(hamming(0x00FF, 0x00FF), 0);
    EXPECT_EQ(hamming(0b1010, 0b0101), 4);
}

TEST(Fiducial, DictionaryHasPairwiseRotationalDistance) {
    const MarkerDictionary& dict = MarkerDictionary::standard();
    ASSERT_GE(dict.size(), 16u);
    for (std::size_t i = 0; i < dict.size(); ++i) {
        for (std::size_t j = 0; j < dict.size(); ++j) {
            std::uint16_t rot = dict.code(j);
            for (int k = 0; k < 4; ++k) {
                if (!(i == j && k == 0)) {
                    EXPECT_GE(hamming(dict.code(i), rot), 4)
                        << "codes " << i << "," << j << " rotation " << k;
                }
                rot = rotate_code_cw(rot);
            }
        }
    }
}

TEST(Fiducial, StandardDictionaryCodesArePinned) {
    // FNV-1a 64 over the 16 codes, two bytes each, low byte first: the
    // codes every rendered and read marker uses.
    const MarkerDictionary& dict = MarkerDictionary::standard();
    ASSERT_EQ(dict.size(), 16u);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t id = 0; id < dict.size(); ++id) {
        for (const int shift : {0, 8}) {
            hash ^= static_cast<std::uint64_t>((dict.code(id) >> shift) & 0xFFU);
            hash *= 0x100000001b3ULL;
        }
    }
    EXPECT_EQ(hash, 0x99cf806131481db2ULL) << std::hex << hash;
}

TEST(Fiducial, MatchIdentifiesRotation) {
    const MarkerDictionary& dict = MarkerDictionary::standard();
    const std::uint16_t code = dict.code(5);
    std::uint16_t rotated = code;
    for (int k = 0; k < 4; ++k) {
        const auto m = dict.match(rotated);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(m->id, 5u);
        EXPECT_EQ(m->rotation, k);
        rotated = rotate_code_cw(rotated);
    }
}

TEST(Fiducial, MatchCorrectsSingleBitError) {
    const MarkerDictionary& dict = MarkerDictionary::standard();
    const std::uint16_t corrupted = dict.code(3) ^ 0x0010;
    const auto m = dict.match(corrupted);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->id, 3u);
    EXPECT_EQ(m->distance, 1);
}

TEST(Fiducial, DetectsRenderedMarker) {
    Rng rng(17);
    Image img(320, 240, {80, 80, 85});
    render_marker(img, MarkerDictionary::standard(), 7, {160, 120}, 60, 0.0);
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 1u);
    EXPECT_EQ(detections[0].id, 7u);
    EXPECT_NEAR(detections[0].center.x, 160, 2.0);
    EXPECT_NEAR(detections[0].center.y, 120, 2.0);
    EXPECT_NEAR(detections[0].side, 60, 3.0);
    EXPECT_NEAR(detections[0].angle, 0.0, 0.05);
}

// Rotation sweep: the detector must recover id, pose and orientation.
class FiducialRotation : public ::testing::TestWithParam<double> {};

TEST_P(FiducialRotation, RecoversAngle) {
    const double angle = GetParam();
    Image img(320, 240, {85, 85, 90});
    render_marker(img, MarkerDictionary::standard(), 4, {160, 120}, 64, angle);
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 1u) << "angle " << angle;
    EXPECT_EQ(detections[0].id, 4u);
    // Compare angles modulo 2π.
    double diff = detections[0].angle - angle;
    while (diff > std::numbers::pi) diff -= 2 * std::numbers::pi;
    while (diff < -std::numbers::pi) diff += 2 * std::numbers::pi;
    EXPECT_NEAR(diff, 0.0, 0.06) << "angle " << angle;
}

INSTANTIATE_TEST_SUITE_P(Angles, FiducialRotation,
                         ::testing::Values(-0.5, -0.2, 0.0, 0.1, 0.3, 0.7, 1.2, 2.0, 3.0));

TEST(Fiducial, SurvivesSensorNoise) {
    Rng rng(23);
    Image img(320, 240, {90, 90, 95});
    render_marker(img, MarkerDictionary::standard(), 11, {150, 110}, 56, 0.25);
    // Add Gaussian noise comparable to the renderer's default.
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const Rgb8 p = img.pixel(x, y);
            auto jitter = [&](std::uint8_t v) {
                const long q = std::lround(v + rng.normal(0.0, 3.0));
                return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
            };
            img.set_pixel(x, y, {jitter(p.r), jitter(p.g), jitter(p.b)});
        }
    }
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 1u);
    EXPECT_EQ(detections[0].id, 11u);
}

TEST(Fiducial, NoFalsePositivesOnBlankFrame) {
    Rng rng(29);
    Image img(320, 240, {120, 120, 125});
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const auto v = static_cast<std::uint8_t>(120 + rng.uniform_int(std::int64_t{-8}, std::int64_t{8}));
            img.set_pixel(x, y, {v, v, v});
        }
    }
    EXPECT_TRUE(detect_markers(img, MarkerDictionary::standard()).empty());
}

// ------------------------------------------------------------------ hough

TEST(Hough, FindsSingleHighContrastCircle) {
    Image img(120, 120, {220, 220, 220});
    fill_circle(img, {60, 60}, 15, {40, 40, 40});
    HoughParams params;
    params.r_min = 8;
    params.r_max = 24;
    params.min_center_dist = 20;
    const auto circles = hough_circles(to_gray(img), params);
    ASSERT_GE(circles.size(), 1u);
    EXPECT_NEAR(circles[0].center.x, 60, 2.0);
    EXPECT_NEAR(circles[0].center.y, 60, 2.0);
    EXPECT_NEAR(circles[0].radius, 15, 2.0);
}

TEST(Hough, FindsMultipleCircles) {
    Image img(200, 100, {230, 230, 230});
    fill_circle(img, {40, 50}, 12, {30, 30, 30});
    fill_circle(img, {100, 50}, 12, {30, 30, 30});
    fill_circle(img, {160, 50}, 12, {30, 30, 30});
    HoughParams params;
    params.r_min = 8;
    params.r_max = 16;
    params.min_center_dist = 25;
    const auto circles = hough_circles(to_gray(img), params);
    EXPECT_EQ(circles.size(), 3u);
}

TEST(Hough, SearchesACroppedPlaneInItsOwnCoordinates) {
    // The reader converts only the plate region to luma and hands Hough
    // that crop; centers come back relative to the crop.
    Image img(200, 100, {230, 230, 230});
    fill_circle(img, {40, 50}, 12, {30, 30, 30});
    fill_circle(img, {160, 50}, 12, {30, 30, 30});
    HoughParams params;
    params.r_min = 8;
    params.r_max = 16;
    params.min_center_dist = 25;
    GrayImage crop;
    to_gray_roi(img, {100, 0, 200, 100}, crop);
    const auto circles = hough_circles(crop, params);
    ASSERT_EQ(circles.size(), 1u);
    EXPECT_NEAR(circles[0].center.x, 60, 2.0);
    EXPECT_NEAR(circles[0].center.y, 50, 2.0);
}

TEST(Hough, EmptyImageYieldsNoCircles) {
    GrayImage g(64, 64, 0.5F);
    HoughParams params;
    params.r_min = 5;
    params.r_max = 10;
    EXPECT_TRUE(hough_circles(g, params).empty());
}

TEST(Hough, RingShapedWellIsDetected) {
    // Wells are rings with colored interiors, not solid disks.
    Image img(120, 120, {206, 204, 198});
    fill_ring(img, {60, 60}, 14, 10.5, {38, 38, 40});
    fill_circle(img, {60, 60}, 10.5, {120, 120, 120});
    HoughParams params;
    params.r_min = 8;
    params.r_max = 20;
    params.min_center_dist = 20;
    const auto circles = hough_circles(to_gray(img), params);
    ASSERT_GE(circles.size(), 1u);
    EXPECT_NEAR(circles[0].center.x, 60, 2.0);
    // The dominant edge is the outer rim (r = 14); blur biases the radius
    // histogram slightly outward.
    EXPECT_NEAR(circles[0].radius, 14.0, 3.0);
}

TEST(Hough, InvalidRadiusRangeThrows) {
    GrayImage g(32, 32);
    HoughParams params;
    params.r_min = 10;
    params.r_max = 5;
    EXPECT_THROW((void)hough_circles(g, params), sdl::support::LogicError);
}

// ---------------------------------------------------------------- gridfit

namespace {
GridModel nominal_grid() {
    return {{100.0, 80.0}, {1.5, 30.0}, {29.0, -1.0}};
}
}  // namespace

TEST(GridFit, ToGridInvertsCenter) {
    const GridModel m = nominal_grid();
    const Vec2 p = m.center(3, 7);
    const Vec2 rc = m.to_grid(p);
    EXPECT_NEAR(rc.x, 3.0, 1e-9);
    EXPECT_NEAR(rc.y, 7.0, 1e-9);
}

TEST(GridFit, RecoversPerturbedGridFromNoisyPoints) {
    Rng rng(31);
    const GridModel truth = nominal_grid();
    // Start from a deliberately offset initial model.
    GridModel initial = truth;
    initial.origin = initial.origin + Vec2{4.0, -3.0};
    initial.row_axis = initial.row_axis * 1.05;

    std::vector<Vec2> points;
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 12; ++c) {
            if ((r * 12 + c) % 5 == 0) continue;  // 20% missing (false negatives)
            points.push_back(truth.center(r, c) + Vec2{rng.normal(0, 0.5), rng.normal(0, 0.5)});
        }
    }
    const GridFit fit = fit_grid(points, initial, 8, 12, 12.0);
    EXPECT_GT(fit.inliers, 70u);
    EXPECT_LT(fit.mean_residual, 1.0);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 12; ++c) {
            EXPECT_LT(distance(fit.model.center(r, c), truth.center(r, c)), 1.5);
        }
    }
}

TEST(GridFit, RobustToFalsePositives) {
    Rng rng(37);
    const GridModel truth = nominal_grid();
    std::vector<Vec2> points;
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 12; ++c) {
            points.push_back(truth.center(r, c) + Vec2{rng.normal(0, 0.3), rng.normal(0, 0.3)});
        }
    }
    // Inject clutter far from any node.
    for (int i = 0; i < 15; ++i) {
        points.push_back({rng.uniform(0, 500), rng.uniform(0, 400)});
    }
    const GridFit fit = fit_grid(points, truth, 8, 12, 10.0);
    EXPECT_LT(fit.mean_residual, 0.8);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 12; ++c) {
            EXPECT_LT(distance(fit.model.center(r, c), truth.center(r, c)), 1.0);
        }
    }
}

TEST(GridFit, TooFewPointsKeepsInitialModel) {
    const GridModel initial = nominal_grid();
    const std::vector<Vec2> points{initial.center(0, 0), initial.center(1, 1)};
    const GridFit fit = fit_grid(points, initial, 8, 12, 10.0);
    EXPECT_EQ(fit.inliers, 2u);
    EXPECT_NEAR(fit.model.origin.x, initial.origin.x, 1e-12);
}

// ------------------------------------------------------- full plate read

namespace {

/// A scene plus ground-truth well colors following the color-picker setup.
struct TestScene {
    PlateScene scene;
    std::vector<Rgb8> colors;
};

TestScene make_scene(double angle, std::uint64_t color_seed) {
    TestScene ts;
    ts.scene.angle_rad = angle;
    Rng rng(color_seed);
    const sdl::color::BeerLambertMixer mixer;
    for (int i = 0; i < ts.scene.geometry.well_count(); ++i) {
        std::vector<double> ratios{rng.uniform(), rng.uniform(), rng.uniform(),
                                   rng.uniform() * 0.4};
        ts.colors.push_back(mixer.mix_ratios(ratios));
    }
    return ts;
}

}  // namespace

TEST(WellReader, ReadsAllWellColorsAccurately) {
    TestScene ts = make_scene(0.0, 41);
    Rng rng(43);
    const Image frame = render_plate(ts.scene, ts.colors, rng);
    WellReadParams params;
    params.geometry = ts.scene.geometry;
    const WellReadout readout = read_plate(frame, params);
    ASSERT_TRUE(readout.ok) << readout.error;
    ASSERT_EQ(readout.colors.size(), 96u);
    EXPECT_EQ(readout.marker.id, calibrated_marker_pose(ts.scene).id);

    // Center prediction accuracy against ground truth.
    const auto truth = true_well_centers(ts.scene);
    for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_LT(distance(readout.centers[i], truth[i]), 3.0) << "well " << i;
    }
    // Color accuracy: within noise + illumination tolerance.
    double worst = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        worst = std::max(worst, sdl::color::rgb_distance(readout.colors[i], ts.colors[i]));
    }
    EXPECT_LT(worst, 25.0);
    double total = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        total += sdl::color::rgb_distance(readout.colors[i], ts.colors[i]);
    }
    EXPECT_LT(total / 96.0, 10.0);
}

TEST(WellReader, WorksWithRotatedPlate) {
    TestScene ts = make_scene(0.12, 47);  // ~7° camera misalignment
    Rng rng(53);
    const Image frame = render_plate(ts.scene, ts.colors, rng);
    WellReadParams params;
    params.geometry = ts.scene.geometry;
    const WellReadout readout = read_plate(frame, params);
    ASSERT_TRUE(readout.ok) << readout.error;
    const auto truth = true_well_centers(ts.scene);
    for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_LT(distance(readout.centers[i], truth[i]), 3.5) << "well " << i;
    }
}

TEST(WellReader, GridRescuesEmptyLowContrastWells) {
    // Only 30 of 96 wells filled: empty wells have faint rims that Hough
    // often misses; the grid fit must still predict their centers.
    TestScene ts = make_scene(0.05, 59);
    std::vector<bool> filled(96, false);
    for (int i = 0; i < 30; ++i) filled[static_cast<std::size_t>(i)] = true;
    Rng rng(61);
    const Image frame = render_plate(ts.scene, ts.colors, rng, &filled);
    WellReadParams params;
    params.geometry = ts.scene.geometry;
    const WellReadout readout = read_plate(frame, params);
    ASSERT_TRUE(readout.ok) << readout.error;

    const auto truth = true_well_centers(ts.scene);
    for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_LT(distance(readout.centers[i], truth[i]), 4.0) << "well " << i;
    }
    // Filled wells read their colors correctly.
    for (std::size_t i = 0; i < 30; ++i) {
        EXPECT_LT(sdl::color::rgb_distance(readout.colors[i], ts.colors[i]), 25.0)
            << "well " << i;
    }
}

TEST(WellReader, FailsGracefullyWithoutMarker) {
    Image frame(640, 480, {100, 100, 100});
    WellReadParams params;
    const WellReadout readout = read_plate(frame, params);
    EXPECT_FALSE(readout.ok);
    EXPECT_FALSE(readout.error.empty());
    EXPECT_TRUE(readout.colors.empty());
}

TEST(WellReader, ReportsDiagnostics) {
    TestScene ts = make_scene(0.0, 67);
    Rng rng(71);
    const Image frame = render_plate(ts.scene, ts.colors, rng);
    WellReadParams params;
    params.geometry = ts.scene.geometry;
    const WellReadout readout = read_plate(frame, params);
    ASSERT_TRUE(readout.ok);
    EXPECT_GT(readout.hough_circles_found, 48u);  // most wells detected
    EXPECT_EQ(readout.wells_with_circle + readout.wells_rescued, 96u);
    EXPECT_LT(readout.grid_residual_px, 2.5);
}
