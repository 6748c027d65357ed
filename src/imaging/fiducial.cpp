#include "imaging/fiducial.hpp"

#include <bit>
#include <cmath>

#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/filters.hpp"
#include "support/common.hpp"
#include "support/random.hpp"

namespace sdl::imaging {

namespace {

// Detection tuning for the camera mount the paper uses (§2.4).
constexpr double kMinSidePx = 12.0;       ///< reject tiny candidates
constexpr double kMaxSidePx = 400.0;      ///< reject huge candidates
constexpr double kMinSquareness = 0.6;    ///< side-ratio gate for quads
constexpr float kAdaptiveOffset = 0.08F;  ///< threshold margin below local mean
constexpr int kAdaptiveWindow = 31;       ///< local-mean window (odd)
constexpr double kBlurSigma = 0.8;        ///< denoise before thresholding
constexpr int kMaxCorrectableBits = 1;    ///< dictionary error correction

}  // namespace

std::uint16_t rotate_code_cw(std::uint16_t code) noexcept {
    // Bit (r, c) of the source lands at (c, kGridBits-1-r) after a
    // clockwise quarter turn.
    std::uint16_t out = 0;
    for (int r = 0; r < kGridBits; ++r) {
        for (int c = 0; c < kGridBits; ++c) {
            if ((code >> (r * kGridBits + c)) & 1U) {
                const int nr = c;
                const int nc = kGridBits - 1 - r;
                out = static_cast<std::uint16_t>(out | (1U << (nr * kGridBits + nc)));
            }
        }
    }
    return out;
}

int hamming(std::uint16_t a, std::uint16_t b) noexcept {
    return std::popcount(static_cast<unsigned>(a ^ b));
}

namespace {

/// The standard dictionary's 16 codes: candidates drawn from a fixed seed,
/// kept when every rotation is at least 6 bits from every kept code.
std::vector<std::uint16_t> standard_codes() {
    constexpr std::size_t kCount = 16;
    constexpr int kMinDistance = 6;
    support::Rng rng(0xA5C0DE);
    std::vector<std::uint16_t> codes;
    codes.reserve(kCount);

    auto rotations = [](std::uint16_t c) {
        std::array<std::uint16_t, 4> rots{c, 0, 0, 0};
        for (int i = 1; i < 4; ++i) rots[static_cast<std::size_t>(i)] =
            rotate_code_cw(rots[static_cast<std::size_t>(i - 1)]);
        return rots;
    };

    while (codes.size() < kCount) {
        const auto candidate = static_cast<std::uint16_t>(rng.next() & 0xFFFFU);
        const int bits = std::popcount(static_cast<unsigned>(candidate));
        if (bits < 5 || bits > 11) continue;  // avoid near-uniform patterns

        const auto cand_rots = rotations(candidate);
        // Rotation self-distance: all non-identity rotations must differ,
        // otherwise orientation is ambiguous.
        bool ok = true;
        for (int k = 1; k < 4 && ok; ++k) {
            if (hamming(candidate, cand_rots[static_cast<std::size_t>(k)]) < 4) ok = false;
        }
        for (const std::uint16_t existing : codes) {
            if (!ok) break;
            for (const std::uint16_t rot : cand_rots) {
                if (hamming(existing, rot) < kMinDistance) {
                    ok = false;
                    break;
                }
            }
        }
        if (ok) codes.push_back(candidate);
    }
    return codes;
}

}  // namespace

const MarkerDictionary& MarkerDictionary::standard() {
    static const MarkerDictionary dict(standard_codes());  // built once, on first use
    return dict;
}

std::optional<MarkerDictionary::Match> MarkerDictionary::match(
    std::uint16_t observed) const noexcept {
    std::optional<Match> best;
    for (std::size_t id = 0; id < codes_.size(); ++id) {
        std::uint16_t rotated = codes_[id];
        for (int k = 0; k < 4; ++k) {
            const int d = hamming(observed, rotated);
            if (d <= kMaxCorrectableBits && (!best || d < best->distance)) {
                best = Match{id, k, d};
            }
            rotated = rotate_code_cw(rotated);
        }
    }
    return best;
}

void render_marker(Image& img, const MarkerDictionary& dict, std::size_t id, Vec2 center,
                   double side_px, double angle_rad, Rect clip) {
    const std::uint16_t code = dict.code(id);
    const double cell = side_px / kMarkerCells;

    // Marker-local frame: origin at the black square's top-left corner,
    // axes rotated by angle_rad.
    const Vec2 ux = Vec2{1, 0}.rotated(angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(angle_rad);
    const Vec2 top_left = center - ux * (side_px / 2) - uy * (side_px / 2);

    auto cell_quad = [&](double c0, double r0, double c1, double r1) {
        const Vec2 corners[4] = {
            top_left + ux * (c0 * cell) + uy * (r0 * cell),
            top_left + ux * (c1 * cell) + uy * (r0 * cell),
            top_left + ux * (c1 * cell) + uy * (r1 * cell),
            top_left + ux * (c0 * cell) + uy * (r1 * cell),
        };
        return std::array<Vec2, 4>{corners[0], corners[1], corners[2], corners[3]};
    };
    auto fill_cells = [&](double c0, double r0, double c1, double r1, color::Rgb8 col) {
        const auto q = cell_quad(c0, r0, c1, r1);
        const Vec2 corners[4] = {q[0], q[1], q[2], q[3]};
        fill_quad(img, corners, col, clip);
    };

    // White card backing extends one cell beyond the black square.
    constexpr color::Rgb8 kWhite{245, 245, 245};
    constexpr color::Rgb8 kBlack{15, 15, 15};
    fill_cells(-1, -1, kMarkerCells + 1, kMarkerCells + 1, kWhite);
    // Black square (border + payload area all black first).
    fill_cells(0, 0, kMarkerCells, kMarkerCells, kBlack);
    // White payload cells.
    for (int r = 0; r < kGridBits; ++r) {
        for (int c = 0; c < kGridBits; ++c) {
            if ((code >> (r * kGridBits + c)) & 1U) {
                fill_cells(c + 1, r + 1, c + 2, r + 2, kWhite);
            }
        }
    }
}

namespace {

/// Samples the marker payload through the homography and thresholds cells
/// against the midpoint of observed extremes. Returns nullopt if the
/// border is not uniformly dark. `gray` may be a region crop whose
/// top-left frame coordinate is (ox, oy); the homography maps into frame
/// coordinates, and subtracting the integer offsets is exact in floating
/// point, so region sampling carries the same bits as full-frame
/// sampling wherever the crop values match.
std::optional<std::uint16_t> sample_payload(const GrayImage& gray, const Homography& h,
                                            int ox, int oy) {
    std::array<std::array<float, kMarkerCells>, kMarkerCells> cells{};
    float lo = 1.0F, hi = 0.0F;
    for (int r = 0; r < kMarkerCells; ++r) {
        for (int c = 0; c < kMarkerCells; ++c) {
            // Average a 3x3 probe inside each cell for noise robustness.
            float acc = 0.0F;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    const double u = (c + 0.5 + dx * 0.2) / kMarkerCells;
                    const double v = (r + 0.5 + dy * 0.2) / kMarkerCells;
                    const Vec2 p = h.apply({u, v});
                    acc += sample_bilinear(gray, p.x - ox, p.y - oy);
                }
            }
            const float val = acc / 9.0F;
            cells[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = val;
            lo = std::min(lo, val);
            hi = std::max(hi, val);
        }
    }
    if (hi - lo < 0.15F) return std::nullopt;  // no contrast: not a marker
    const float mid = 0.5F * (lo + hi);

    // Border cells must all read dark.
    for (int i = 0; i < kMarkerCells; ++i) {
        if (cells[0][static_cast<std::size_t>(i)] > mid ||
            cells[kMarkerCells - 1][static_cast<std::size_t>(i)] > mid ||
            cells[static_cast<std::size_t>(i)][0] > mid ||
            cells[static_cast<std::size_t>(i)][kMarkerCells - 1] > mid) {
            return std::nullopt;
        }
    }
    std::uint16_t code = 0;
    for (int r = 0; r < kGridBits; ++r) {
        for (int c = 0; c < kGridBits; ++c) {
            if (cells[static_cast<std::size_t>(r + 1)][static_cast<std::size_t>(c + 1)] > mid) {
                code = static_cast<std::uint16_t>(code | (1U << (r * kGridBits + c)));
            }
        }
    }
    return code;
}

}  // namespace

int marker_region_margin() {
    // The threshold mask at a pixel reads the blurred plane across the
    // adaptive half window, the blurred plane reads the gray plane across
    // the kernel radius, and labeling/boundary extraction look one more
    // pixel out; +1 slack rounds the reach up.
    const int blur_radius = static_cast<int>(std::ceil(3.0 * kBlurSigma));
    return kAdaptiveWindow / 2 + blur_radius + 2;
}

namespace {

/// Shared pipeline for full-frame and region-restricted detection.
void detect_impl(const Image& img, const MarkerDictionary& dict, Rect region,
                 MarkerScratch& scratch, std::vector<MarkerDetection>& out) {
    out.clear();
    if (img.width() < 8 || img.height() < 8) return;
    const Rect r = region.clipped(img.width(), img.height());
    if (r.width() < 8 || r.height() < 8) return;

    to_gray_roi(img, r, scratch.gray);
    gaussian_blur(scratch.gray, kBlurSigma, scratch.smooth, scratch.blur);
    adaptive_threshold(scratch.smooth, kAdaptiveWindow, kAdaptiveOffset, scratch.dark,
                       scratch.integral);
    const auto min_area = static_cast<std::size_t>(kMinSidePx * kMinSidePx * 0.3);
    label_components(scratch.dark, min_area, scratch.labels);
    const Labeling& labeling = scratch.labels.labeling;

    // Filter outputs near an interior crop edge differ from a full-frame
    // run (the filters clamp at the crop instead of seeing the real
    // neighborhood); a frame edge behaves identically in both runs.
    const int margin = marker_region_margin();
    const bool guard_left = r.x0 > 0;
    const bool guard_top = r.y0 > 0;
    const bool guard_right = r.x1 < img.width();
    const bool guard_bottom = r.y1 < img.height();

    for (std::int32_t i = 0; i < static_cast<std::int32_t>(labeling.blobs.size()); ++i) {
        const Blob& blob = labeling.blobs[static_cast<std::size_t>(i)];
        const double bbox_side = std::max(blob.bbox.width(), blob.bbox.height());
        const bool plausible = bbox_side >= kMinSidePx && bbox_side <= kMaxSidePx * 1.5;
        const bool contaminated = (guard_left && blob.bbox.x0 < margin) ||
                                  (guard_top && blob.bbox.y0 < margin) ||
                                  (guard_right && blob.bbox.x1 > r.width() - margin) ||
                                  (guard_bottom && blob.bbox.y1 > r.height() - margin);
        if (contaminated || !plausible) continue;

        boundary_pixels(labeling, i, scratch.boundary);
        if (r.x0 != 0 || r.y0 != 0) {
            // Integer translation of integer-valued coordinates is exact:
            // from here on all geometry runs in frame coordinates, bit for
            // bit as the full-frame pipeline computes it.
            for (Vec2& p : scratch.boundary) {
                p.x += r.x0;
                p.y += r.y0;
            }
        }
        const auto quad = extract_quad(scratch.boundary);
        if (!quad) continue;
        if (squareness(*quad) < kMinSquareness) continue;
        const double side = mean_side(*quad);
        if (side < kMinSidePx || side > kMaxSidePx) continue;

        // The marker's black area is the border plus unset payload bits;
        // it must cover a plausible fraction of the quad.
        const double quad_area = side * side;
        const double fill = static_cast<double>(blob.area) / quad_area;
        if (fill < 0.35 || fill > 1.05) continue;

        Homography h;
        try {
            h = Homography::unit_square_to(*quad);
        } catch (const support::Error&) {
            continue;
        }
        const auto payload = sample_payload(scratch.smooth, h, r.x0, r.y0);
        if (!payload) continue;
        const auto match = dict.match(*payload);
        if (!match) continue;

        MarkerDetection det;
        det.id = match->id;
        det.corners = *quad;
        det.center = (det.corners[0] + det.corners[1] + det.corners[2] + det.corners[3]) * 0.25;
        det.side = side;
        det.bit_errors = match->distance;
        // Orientation: observed payload = rot_cw^k(canonical) means the
        // canonical pattern appears turned k quarter-turns clockwise in
        // the quad frame, so canonical corner 0 (payload top-left) sits at
        // detected corner k. The canonical x-axis is the edge 0 -> 1.
        const std::size_t j0 = static_cast<std::size_t>(match->rotation % 4);
        const std::size_t j1 = (j0 + 1) % 4;
        const Vec2 xaxis = det.corners[j1] - det.corners[j0];
        det.angle = std::atan2(xaxis.y, xaxis.x);
        out.push_back(det);
    }
}

}  // namespace

std::vector<MarkerDetection> detect_markers(const Image& img,
                                            const MarkerDictionary& dict) {
    MarkerScratch scratch;
    std::vector<MarkerDetection> detections;
    detect_markers(img, dict, scratch, detections);
    return detections;
}

void detect_markers(const Image& img, const MarkerDictionary& dict,
                    MarkerScratch& scratch, std::vector<MarkerDetection>& out) {
    detect_impl(img, dict, {0, 0, img.width(), img.height()}, scratch, out);
}

void detect_markers_in_region(const Image& img, const MarkerDictionary& dict, Rect region,
                              MarkerScratch& scratch, std::vector<MarkerDetection>& out) {
    detect_impl(img, dict, region, scratch, out);
}

}  // namespace sdl::imaging
