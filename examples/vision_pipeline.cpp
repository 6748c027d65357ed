// The §2.4 image-processing pipeline, step by step: render a synthetic
// camera frame, detect the fiducial marker, find wells with the Hough
// transform, align the grid, read colors — and write PPM images you can
// open to see each stage (frame + annotated detection overlay).
#include <cstdio>

#include "color/mixing.hpp"
#include "imaging/draw.hpp"
#include "imaging/fiducial.hpp"
#include "imaging/hough.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/ppm.hpp"
#include "imaging/well_reader.hpp"
#include "support/log.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

using namespace sdl;
using namespace sdl::imaging;

int main() {
    support::set_log_level(support::LogLevel::Warn);

    // A plate with a gray gradient across its 96 wells, photographed at a
    // slight angle — 60 of 96 wells filled.
    PlateScene scene;
    scene.angle_rad = 0.06;
    const color::BeerLambertMixer mixer;
    std::vector<color::Rgb8> colors;
    std::vector<bool> filled(96, false);
    for (int i = 0; i < 96; ++i) {
        const double k = 0.1 + 0.8 * i / 95.0;
        const std::vector<double> ratios{0.25 * (1 - k), 0.25 * (1 - k), 0.25 * (1 - k), k};
        colors.push_back(mixer.mix_ratios(ratios));
        filled[static_cast<std::size_t>(i)] = i < 60;
    }

    support::Rng rng(21);
    const Image frame = render_plate(scene, colors, rng, &filled);
    save_ppm(frame, "vision_frame.ppm");
    std::printf("Rendered camera frame -> vision_frame.ppm (%dx%d)\n", frame.width(),
                frame.height());

    // Stage 1: fiducial marker.
    const auto markers = detect_markers(frame, MarkerDictionary::standard());
    std::printf("\nStage 1 — fiducial: %zu marker(s) found\n", markers.size());
    for (const auto& m : markers) {
        std::printf("  id=%zu center=(%.1f, %.1f) side=%.1fpx angle=%.1f deg "
                    "bit_errors=%d\n",
                    m.id, m.center.x, m.center.y, m.side, m.angle * 180.0 / 3.14159265,
                    m.bit_errors);
    }

    // Stages 2-5 via the full reader (plate region, Hough, grid, colors).
    WellReadParams params;
    params.geometry = scene.geometry;
    const WellReadout readout = read_plate(frame, params);
    if (!readout.ok) {
        std::printf("pipeline failed: %s\n", readout.error.c_str());
        return 1;
    }
    std::printf("\nStages 2-4 — wells: %zu circles from Hough, %zu wells with direct\n"
                "circle support, %zu rescued by the grid fit (residual %.2f px)\n",
                readout.hough_circles_found, readout.wells_with_circle,
                readout.wells_rescued, readout.grid_residual_px);

    // Accuracy against ground truth.
    const auto truth = true_well_centers(scene);
    double worst = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        worst = std::max(worst, distance(truth[i], readout.centers[i]));
    }
    support::OnlineStats color_err;
    for (int i = 0; i < 60; ++i) {
        color_err.add(color::rgb_distance(readout.colors[static_cast<std::size_t>(i)],
                                          colors[static_cast<std::size_t>(i)]));
    }
    std::printf("\nStage 5 — readout: worst center error %.2f px, mean color error "
                "%.2f RGB units over the 60 filled wells\n",
                worst, color_err.mean());

    // Annotated overlay: predicted centers (green) + marker corners (red).
    Image overlay = frame;
    for (const auto& center : readout.centers) {
        draw_circle(overlay, center, 3.0, {0, 220, 0});
    }
    for (const auto& m : markers) {
        for (const auto& corner : m.corners) draw_circle(overlay, corner, 4.0, {255, 40, 40});
    }
    save_ppm(overlay, "vision_overlay.ppm");
    std::printf("\nAnnotated detection overlay -> vision_overlay.ppm\n");
    return 0;
}
