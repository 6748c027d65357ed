// Square fiducial markers (a compact ArUco equivalent).
//
// The lab stations the microplate at a known offset from an ArUco marker
// and derives the plate's approximate pixel boundaries from the marker's
// detected size and position (§2.4). This module implements the same
// mechanism from scratch: a 4x4-bit payload surrounded by a one-cell
// black border, a dictionary with guaranteed rotational ambiguity-free
// codes, an encoder that rasterizes markers into camera frames, and a
// detector that recovers id, corners, scale and orientation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "imaging/components.hpp"
#include "imaging/filters.hpp"
#include "imaging/image.hpp"
#include "imaging/quad.hpp"

namespace sdl::imaging {

/// Payload grid dimension (bits are kGridBits x kGridBits).
inline constexpr int kGridBits = 4;
/// Full marker dimension in cells, including the black border.
inline constexpr int kMarkerCells = kGridBits + 2;

/// Rotates a 4x4 bit pattern 90° clockwise.
[[nodiscard]] std::uint16_t rotate_code_cw(std::uint16_t code) noexcept;

/// Hamming distance between two 16-bit codes.
[[nodiscard]] int hamming(std::uint16_t a, std::uint16_t b) noexcept;

/// A dictionary of marker codes with pairwise (rotation-inclusive)
/// Hamming distance >= 6 and self-rotation distance >= 4, so every
/// observation decodes to a unique (id, rotation).
class MarkerDictionary {
public:
    /// The 16-marker dictionary used across sdlbench, drawn from a fixed
    /// seed on first use.
    [[nodiscard]] static const MarkerDictionary& standard();

    [[nodiscard]] std::size_t size() const noexcept { return codes_.size(); }
    [[nodiscard]] std::uint16_t code(std::size_t id) const { return codes_.at(id); }

    /// Looks up an observed payload; returns (id, rotation) where
    /// rotation is the number of clockwise 90° turns that map the
    /// canonical code onto the observation. Tolerates one bit error; the
    /// closest code wins.
    struct Match {
        std::size_t id;
        int rotation;
        int distance;
    };
    [[nodiscard]] std::optional<Match> match(std::uint16_t observed) const noexcept;

private:
    explicit MarkerDictionary(std::vector<std::uint16_t> codes) : codes_(std::move(codes)) {}
    std::vector<std::uint16_t> codes_;
};

/// Draws marker `id` onto `img`: a white card backing plus the black
/// border and payload cells, centered at `center` with black-square side
/// `side_px`, rotated by `angle_rad` (clockwise on screen, y-down). Only
/// pixels inside `clip` are drawn (see fill_quad).
void render_marker(Image& img, const MarkerDictionary& dict, std::size_t id, Vec2 center,
                   double side_px, double angle_rad, Rect clip = kNoClip);

struct MarkerDetection {
    std::size_t id = 0;
    Quad corners;      ///< detected black-square corners, clockwise
    Vec2 center;       ///< corner centroid
    double side = 0;   ///< mean side length in pixels
    double angle = 0;  ///< marker x-axis direction in image coords (rad)
    int bit_errors = 0;
};

/// Finds all dictionary markers in the frame.
[[nodiscard]] std::vector<MarkerDetection> detect_markers(const Image& img,
                                                          const MarkerDictionary& dict);

/// Reusable detection workspace: the gray/blurred/thresholded planes,
/// the summed-area table, the labeling, and the boundary buffer all
/// persist across frames (no allocation once warm). One per camera or
/// reader session; never shared across threads.
struct MarkerScratch {
    GrayImage gray;
    GrayImage smooth;
    BlurScratch blur;
    BinaryImage dark;
    std::vector<double> integral;
    LabelScratch labels;
    std::vector<Vec2> boundary;
};

/// detect_markers with a persistent workspace; fills `out` (cleared
/// first). Results are bitwise identical to detect_markers.
void detect_markers(const Image& img, const MarkerDictionary& dict,
                    MarkerScratch& scratch, std::vector<MarkerDetection>& out);

/// Pixel margin a blob must keep from any interior (non-frame) edge of a
/// detection region for the region-restricted pipeline to reproduce the
/// full-frame filter outputs over that blob exactly: the adaptive
/// threshold's half window, plus the blur kernel radius, plus the
/// labeling/boundary pixel neighborhood.
[[nodiscard]] int marker_region_margin();

/// Region-restricted detection — the ROI fast path. Runs the same
/// pipeline over `region` (clipped to the frame) only, producing
/// detections in frame coordinates. Every detection returned comes from
/// a blob that kept marker_region_margin() pixels clear of interior
/// region edges, and is therefore bitwise identical to the detection a
/// full-frame detect_markers would produce for the same blob; blobs
/// inside the contaminated band are skipped, never decoded differently.
/// A region scan cannot see markers outside `region` or cut by its
/// edges; callers that need every marker in the frame — not just one
/// tracked marker with a full-frame fallback — must scan the full frame.
void detect_markers_in_region(const Image& img, const MarkerDictionary& dict, Rect region,
                              MarkerScratch& scratch, std::vector<MarkerDetection>& out);

}  // namespace sdl::imaging
