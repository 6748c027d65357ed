// Ablation A3 — the §2.4 vision pipeline.
//
// Quantifies (a) HoughCircles' false-negative behaviour on partially
// filled plates, (b) the value of the paper's grid-alignment rescue
// ("use this grid's size and orientation to predict the center points for
// all wells ... even those originally missed"), and (c) robustness to
// sensor noise and camera rotation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "color/mixing.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "support/log.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace sdl;
using namespace sdl::imaging;

namespace {

struct SceneResult {
    std::size_t hough = 0;
    std::size_t rescued = 0;
    double worst_center_err = 0.0;
    double mean_color_err = 0.0;  ///< over filled wells
    bool ok = false;
};

SceneResult evaluate_scene(double noise, double angle, int filled_count,
                           std::uint64_t seed) {
    PlateScene scene;
    scene.noise_sigma = noise;
    scene.angle_rad = angle;

    const color::BeerLambertMixer mixer;
    support::Rng color_rng(seed);
    std::vector<color::Rgb8> colors;
    for (int i = 0; i < 96; ++i) {
        std::vector<double> ratios{color_rng.uniform(), color_rng.uniform(),
                                   color_rng.uniform(), color_rng.uniform() * 0.4};
        colors.push_back(mixer.mix_ratios(ratios));
    }
    std::vector<bool> filled(96, false);
    for (int i = 0; i < filled_count; ++i) filled[static_cast<std::size_t>(i)] = true;

    support::Rng render_rng(seed * 31 + 7);
    const Image frame = render_plate(scene, colors, render_rng, &filled);

    WellReadParams params;
    params.geometry = scene.geometry;
    const WellReadout readout = read_plate(frame, params);

    SceneResult result;
    result.ok = readout.ok;
    if (!readout.ok) return result;
    result.hough = readout.hough_circles_found;
    result.rescued = readout.wells_rescued;

    const auto truth = true_well_centers(scene);
    for (std::size_t i = 0; i < truth.size(); ++i) {
        result.worst_center_err =
            std::max(result.worst_center_err, distance(truth[i], readout.centers[i]));
    }
    support::OnlineStats color_err;
    for (int i = 0; i < filled_count; ++i) {
        color_err.add(color::rgb_distance(readout.colors[static_cast<std::size_t>(i)],
                                          colors[static_cast<std::size_t>(i)]));
    }
    result.mean_color_err = color_err.mean();
    return result;
}

}  // namespace

int main() {
    support::set_log_level(support::LogLevel::Error);
    std::printf("================================================================\n");
    std::printf("Ablation A3 — vision pipeline: Hough false negatives and the\n");
    std::printf("grid-alignment rescue (§2.4)\n");
    std::printf("================================================================\n");

    // (a) Fill-fraction sweep: empty wells are low-contrast, so Hough
    // misses most of them; the grid predicts every center regardless.
    std::printf("\n[Fill sweep] noise=2.0, no rotation:\n");
    {
        support::TextTable table({"Filled wells", "Hough circles", "Rescued",
                                  "Worst center err", "Mean color err (filled)"});
        table.set_alignment({support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right});
        for (const int filled : {4, 16, 48, 96}) {
            const SceneResult r = evaluate_scene(2.0, 0.0, filled, 11);
            table.add_row({std::to_string(filled), std::to_string(r.hough),
                           std::to_string(r.rescued),
                           support::fmt_double(r.worst_center_err, 2) + " px",
                           support::fmt_double(r.mean_color_err, 2)});
        }
        std::printf("%s", table.str().c_str());
    }

    // (b) Sensor-noise sweep on a fully filled plate.
    std::printf("\n[Noise sweep] all 96 wells filled:\n");
    {
        support::TextTable table({"Noise sigma", "Hough circles", "Worst center err",
                                  "Mean color err"});
        table.set_alignment({support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right});
        for (const double noise : {0.5, 2.0, 4.0, 8.0, 12.0}) {
            const SceneResult r = evaluate_scene(noise, 0.05, 96, 13);
            table.add_row({support::fmt_double(noise, 1), std::to_string(r.hough),
                           support::fmt_double(r.worst_center_err, 2) + " px",
                           support::fmt_double(r.mean_color_err, 2)});
        }
        std::printf("%s", table.str().c_str());
    }

    // (c) Rotation sweep: the marker carries the orientation.
    std::printf("\n[Rotation sweep] all wells filled, noise=2.0:\n");
    {
        support::TextTable table({"Rotation (deg)", "Marker found", "Worst center err",
                                  "Mean color err"});
        table.set_alignment({support::TextTable::Align::Right,
                             support::TextTable::Align::Left,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right});
        for (const double deg : {-8.0, -3.0, 0.0, 3.0, 8.0, 15.0}) {
            const SceneResult r = evaluate_scene(2.0, deg * 3.14159265 / 180.0, 96, 17);
            table.add_row({support::fmt_double(deg, 1), r.ok ? "yes" : "NO",
                           r.ok ? support::fmt_double(r.worst_center_err, 2) + " px" : "-",
                           r.ok ? support::fmt_double(r.mean_color_err, 2) : "-"});
        }
        std::printf("%s", table.str().c_str());
    }

    std::printf("\nExpected shape: rescued wells dominate on sparse plates while\n"
                "center error stays within a couple of pixels (the paper's rescue);\n"
                "accuracy degrades gracefully with noise; rotation is absorbed by\n"
                "the fiducial's orientation estimate.\n");
    return 0;
}
