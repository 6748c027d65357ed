// Hot-path microbenchmark + perf trajectory recorder.
//
// Times the two costs that bound campaign scale — GP candidate scoring
// (solver/bayes.hpp) and the per-frame vision pipeline (imaging/) — plus
// closed-loop throughput per workcell scenario, and writes
// BENCH_hotpath.json. CI compares that file against the committed
// baseline (bench/baselines/BENCH_hotpath.baseline.json) with
// tools/bench_compare.py and fails the build on large regressions.
//
//   bench_hotpath [--quick]   # --quick: fewer reps for smoke use
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/colorpicker.hpp"
#include "core/presets.hpp"
#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "prepr_reference.hpp"
#include "solver/bayes.hpp"
#include "support/atomic_io.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/random.hpp"
#include "support/table.hpp"

using namespace sdl;
namespace json = support::json;

namespace {

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Best-of-`reps` seconds per call — the standard microbenchmark
/// estimator: the minimum is the least contaminated by scheduler noise,
/// which matters on small shared runners.
template <typename F>
double time_per_call(int reps, F&& fn) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const double t0 = now_seconds();
        fn();
        const double dt = now_seconds() - t0;
        if (dt < best) best = dt;
    }
    return best;
}

// ------------------------------------------------------------ GP scoring

struct GpRow {
    std::size_t n = 0;
    std::size_t candidates = 0;
    double prepr_ns = 0.0;       ///< per candidate, frozen PR-4 predict loop
    double sequential_ns = 0.0;  ///< per candidate, current predict() loop
    double batch_ns = 0.0;       ///< per candidate, score_candidate_pool
    double speedup = 0.0;        ///< prepr -> batch
    double speedup_vs_sequential = 0.0;
};

GpRow bench_gp(std::size_t n, std::size_t candidates, int reps) {
    support::Rng rng(0xFEED + n * 131 + candidates);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[1] + 0.05 * rng.normal(0, 1));
        xs.push_back(std::move(x));
    }
    solver::GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/false);
    // Same data, same (default) hyperparameters, PR-4 math.
    prepr::Gp reference;
    reference.fit(xs, ys, gp.hyperparams().lengthscale, gp.hyperparams().noise_var);

    linalg::Matrix pool(candidates, 4);
    for (std::size_t c = 0; c < candidates; ++c) {
        for (std::size_t k = 0; k < 4; ++k) pool(c, k) = rng.uniform();
    }

    // Keep the optimizer honest.
    double sink = 0.0;

    const double prepr_s = time_per_call(reps, [&] {
        for (std::size_t c = 0; c < candidates; ++c) {
            const auto pred = reference.predict(pool.row(c));
            sink += pred.mean + pred.variance;
        }
    });
    const double seq_s = time_per_call(reps, [&] {
        for (std::size_t c = 0; c < candidates; ++c) {
            const auto pred = gp.predict(pool.row(c));
            sink += pred.mean + pred.variance;
        }
    });
    const double batch_s = time_per_call(reps, [&] {
        const auto preds = solver::score_candidate_pool(gp, pool);
        sink += preds.front().mean + preds.back().variance;
    });
    if (sink == 42.0) std::printf("|");  // never true; defeats DCE

    GpRow row;
    row.n = n;
    row.candidates = candidates;
    row.prepr_ns = prepr_s * 1e9 / static_cast<double>(candidates);
    row.sequential_ns = seq_s * 1e9 / static_cast<double>(candidates);
    row.batch_ns = batch_s * 1e9 / static_cast<double>(candidates);
    row.speedup = row.batch_ns > 0.0 ? row.prepr_ns / row.batch_ns : 0.0;
    row.speedup_vs_sequential =
        row.batch_ns > 0.0 ? row.sequential_ns / row.batch_ns : 0.0;
    return row;
}

// ---------------------------------------------------------------- GP fit

/// One GaussianProcess::fit with its hyperparameter grid search at
/// BayesConfig::max_points (n = 256), where a long Bayesian campaign's
/// O(n^3) factorizations run. Lands in the warn-only drift report (an
/// `_ns` absolute), not the speedup gate.
double bench_gp_fit_ns(std::size_t n, int reps) {
    support::Rng rng(0xF17 + n);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[1] + 0.05 * rng.normal(0, 1));
        xs.push_back(std::move(x));
    }
    solver::GaussianProcess gp;
    double sink = 0.0;
    const double fit_s = time_per_call(reps, [&] {
        gp.fit(xs, ys, /*optimize=*/true);
        sink += gp.hyperparams().lengthscale;
    });
    if (sink == 42.0) std::printf("|");  // never true; defeats DCE
    return fit_s * 1e9;
}

// ---------------------------------------------------------------- vision

struct VisionStats {
    double render_prepr_ns = 0.0;  ///< frozen PR-4 render_plate
    double render_full_ns = 0.0;
    double render_cached_ns = 0.0;
    /// Warm PlateRenderer on the 3200x2400 frame of a 1536-well plate.
    double render_1536_ns = 0.0;
    double read_prepr_ns = 0.0;  ///< frozen PR-4 read_plate
    double read_full_ns = 0.0;
    double read_scratch_ns = 0.0;
    double read_session_ns = 0.0;
    double to_gray_ns = 0.0;
    double blur_ns = 0.0;
    double adaptive_ns = 0.0;
    double detect_markers_ns = 0.0;
    double hough_roi_ns = 0.0;
    double render_speedup = 0.0;
    double read_speedup = 0.0;
};

VisionStats bench_vision_paths(int reps) {
    imaging::PlateScene scene;
    scene.noise_sigma = 2.0;
    scene.angle_rad = 0.03;
    support::Rng color_rng(4242);
    std::vector<color::Rgb8> colors;
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256))});
    }

    VisionStats stats;
    support::Rng rng_prepr(7);
    stats.render_prepr_ns =
        time_per_call(reps,
                      [&] { (void)prepr::render_plate(scene, colors, rng_prepr); }) *
        1e9;
    support::Rng rng_a(7);
    stats.render_full_ns =
        time_per_call(reps, [&] { (void)imaging::render_plate(scene, colors, rng_a); }) *
        1e9;
    support::Rng rng_b(7);
    imaging::PlateRenderer renderer;
    (void)renderer.render(scene, colors, rng_b);  // warm the base cache
    stats.render_cached_ns =
        time_per_call(reps, [&] { (void)renderer.render(scene, colors, rng_b); }) * 1e9;

    // The densest plate format: scene_for_plate upscales the raster 4x to
    // 3200x2400, so the per-pixel sensor model dominates the frame.
    const imaging::PlateScene dense = imaging::scene_for_plate(scene, 32, 48);
    std::vector<color::Rgb8> dense_colors;
    for (int i = 0; i < dense.geometry.well_count(); ++i) {
        dense_colors.push_back(colors[static_cast<std::size_t>(i) % colors.size()]);
    }
    support::Rng rng_dense(7);
    imaging::PlateRenderer dense_renderer;
    (void)dense_renderer.render(dense, dense_colors, rng_dense);  // warm the base cache
    stats.render_1536_ns = time_per_call(reps, [&] {
                               (void)dense_renderer.render(dense, dense_colors, rng_dense);
                           }) *
                           1e9;

    support::Rng frame_rng(9);
    const imaging::Image frame = imaging::render_plate(scene, colors, frame_rng);
    imaging::WellReadParams params;
    params.geometry = scene.geometry;

    stats.read_prepr_ns =
        time_per_call(reps, [&] { (void)prepr::read_plate(frame, params); }) * 1e9;
    stats.read_full_ns =
        time_per_call(reps, [&] { (void)imaging::read_plate(frame, params); }) * 1e9;
    imaging::FrameScratch scratch;
    (void)imaging::read_plate(frame, params, scratch);  // warm the pool
    stats.read_scratch_ns =
        time_per_call(reps, [&] { (void)imaging::read_plate(frame, params, scratch); }) *
        1e9;
    imaging::PlateReader reader(params);
    (void)reader.read(frame);  // cold full scan seeds the marker hint
    stats.read_session_ns = time_per_call(reps, [&] { (void)reader.read(frame); }) * 1e9;

    // Stage breakdown (full-frame costs the old path paid every frame).
    imaging::GrayImage gray;
    imaging::to_gray(frame, gray);
    stats.to_gray_ns = time_per_call(reps, [&] { imaging::to_gray(frame, gray); }) * 1e9;
    imaging::BlurScratch blur_scratch;
    imaging::GrayImage smooth;
    stats.blur_ns =
        time_per_call(reps, [&] { gaussian_blur(gray, 0.8, smooth, blur_scratch); }) * 1e9;
    imaging::BinaryImage mask;
    std::vector<double> integral;
    stats.adaptive_ns =
        time_per_call(reps, [&] { adaptive_threshold(smooth, 31, 0.08F, mask, integral); }) *
        1e9;
    imaging::MarkerScratch marker_scratch;
    std::vector<imaging::MarkerDetection> detections;
    stats.detect_markers_ns = time_per_call(reps, [&] {
                                  detect_markers(frame, imaging::MarkerDictionary::standard(),
                                                 {}, marker_scratch, detections);
                              }) *
                              1e9;
    // Hough over the plate ROI, as read_plate drives it.
    const auto readout = reader.read(frame);
    imaging::HoughParams hough;
    const double expected_r = scene.geometry.well_radius * readout.marker.side;
    hough.r_min = std::max(2.0, expected_r * 0.55);
    hough.r_max = expected_r * 1.45;
    hough.min_center_dist = 0.6 * scene.geometry.spacing * readout.marker.side;
    imaging::HoughScratch hough_scratch;
    stats.hough_roi_ns = time_per_call(reps, [&] {
                             imaging::GrayImage roi_gray;
                             imaging::to_gray_roi(frame, {250, 100, 640, 420}, roi_gray);
                             (void)imaging::hough_circles(roi_gray, hough, hough_scratch);
                         }) *
                         1e9;

    stats.render_speedup = stats.render_cached_ns > 0.0
                               ? stats.render_prepr_ns / stats.render_cached_ns
                               : 0.0;
    stats.read_speedup =
        stats.read_session_ns > 0.0 ? stats.read_prepr_ns / stats.read_session_ns : 0.0;
    return stats;
}

// ------------------------------------------------------------- full loop

struct LoopRow {
    std::string scenario;
    double samples_per_sec = 0.0;
    double batches_per_sec = 0.0;
    double wall_seconds = 0.0;
};

LoopRow bench_loop(const std::string& scenario_name, int total_samples, int batch) {
    core::ColorPickerConfig config = core::preset_quickstart(21);
    config.total_samples = total_samples;
    config.batch_size = batch;
    config = core::apply_workcell_spec(config, core::scenario_by_name(scenario_name));
    config.experiment_id = "hotpath_" + scenario_name;
    const double t0 = now_seconds();
    core::ColorPickerApp app(config);
    const auto outcome = app.run();
    const double wall = now_seconds() - t0;
    LoopRow row;
    row.scenario = scenario_name;
    row.wall_seconds = wall;
    row.samples_per_sec = wall > 0.0 ? static_cast<double>(outcome.samples.size()) / wall : 0.0;
    row.batches_per_sec = wall > 0.0 ? static_cast<double>(outcome.batches_run) / wall : 0.0;
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    support::set_log_level(support::LogLevel::Error);
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const int gp_reps = quick ? 3 : 20;
    const int vision_reps = quick ? 2 : 10;
    const int loop_samples = quick ? 8 : 24;

    std::printf("================================================================\n");
    std::printf("Hot-path bench — GP candidate scoring, vision pipeline, loop\n");
    std::printf("================================================================\n");

    // GP scoring across training-set and pool sizes.
    std::vector<GpRow> gp_rows;
    std::printf("\n[GP posterior scoring] PR-4 predict loop vs batched scoring:\n");
    {
        support::TextTable table({"n (obs)", "C (candidates)", "PR4 ns/pt", "seq ns/pt",
                                  "batch ns/pt", "speedup vs PR4"});
        table.set_alignment({support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right});
        for (const std::size_t n : {16u, 64u, 256u}) {
            for (const std::size_t c : {64u, 256u, 1024u}) {
                const GpRow row = bench_gp(n, c, gp_reps);
                gp_rows.push_back(row);
                table.add_row({std::to_string(row.n), std::to_string(row.candidates),
                               support::fmt_double(row.prepr_ns, 0),
                               support::fmt_double(row.sequential_ns, 0),
                               support::fmt_double(row.batch_ns, 0),
                               support::fmt_double(row.speedup, 2) + "x"});
            }
        }
        std::printf("%s", table.str().c_str());
    }

    constexpr std::size_t kFitPoints = 256;
    const double gp_fit_ns = bench_gp_fit_ns(kFitPoints, gp_reps);
    std::printf("\n[GP fit] fit(optimize=true) at n=%zu: %.2f ms\n", kFitPoints,
                gp_fit_ns / 1e6);

    // Vision pipeline paths.
    std::printf("\n[Vision] per-frame costs (800x600 scene, 96 wells):\n");
    const VisionStats vision = bench_vision_paths(vision_reps);
    std::printf("  render: PR4 %8.2f ms   full %8.2f ms   cached base %8.2f ms   "
                "(%.2fx PR4->cached)\n",
                vision.render_prepr_ns / 1e6, vision.render_full_ns / 1e6,
                vision.render_cached_ns / 1e6, vision.render_speedup);
    std::printf("  render: 1536-well 3200x2400, cached base %8.2f ms\n",
                vision.render_1536_ns / 1e6);
    std::printf("  read:   PR4 %8.2f ms   full %8.2f ms   scratch %8.2f ms   "
                "session(ROI) %8.2f ms  (%.2fx PR4->session)\n",
                vision.read_prepr_ns / 1e6, vision.read_full_ns / 1e6,
                vision.read_scratch_ns / 1e6, vision.read_session_ns / 1e6,
                vision.read_speedup);
    std::printf("  stages: to_gray %.2f ms  blur %.2f ms  adaptive %.2f ms  "
                "detect_markers %.2f ms  hough(ROI) %.2f ms\n",
                vision.to_gray_ns / 1e6, vision.blur_ns / 1e6, vision.adaptive_ns / 1e6,
                vision.detect_markers_ns / 1e6, vision.hough_roi_ns / 1e6);

    // Closed loop per scenario.
    std::printf("\n[Closed loop] samples/sec by workcell scenario (N=%d, B=4):\n",
                loop_samples);
    std::vector<LoopRow> loop_rows;
    {
        support::TextTable table({"Scenario", "Wall s", "Samples/s", "Batches/s"});
        table.set_alignment({support::TextTable::Align::Left,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right});
        for (const std::string& name : core::scenario_names()) {
            const LoopRow row = bench_loop(name, loop_samples, 4);
            loop_rows.push_back(row);
            table.add_row({row.scenario, support::fmt_double(row.wall_seconds, 2),
                           support::fmt_double(row.samples_per_sec, 1),
                           support::fmt_double(row.batches_per_sec, 1)});
        }
        std::printf("%s", table.str().c_str());
    }

    // The perf trajectory file.
    json::Value bench = json::Value::object();
    bench.set("schema", "sdlbench.bench_hotpath.v1");
    bench.set("quick", quick);
    json::Value gp = json::Value::array();
    for (const GpRow& row : gp_rows) {
        json::Value entry = json::Value::object();
        entry.set("n", static_cast<std::int64_t>(row.n));
        entry.set("candidates", static_cast<std::int64_t>(row.candidates));
        entry.set("prepr_ns_per_predict", row.prepr_ns);
        entry.set("sequential_ns_per_predict", row.sequential_ns);
        entry.set("batch_ns_per_predict", row.batch_ns);
        entry.set("speedup_vs_prepr", row.speedup);
        entry.set("speedup_vs_sequential", row.speedup_vs_sequential);
        gp.push_back(std::move(entry));
    }
    bench.set("gp", std::move(gp));
    json::Value gp_fit = json::Value::object();
    gp_fit.set("n", static_cast<std::int64_t>(kFitPoints));
    gp_fit.set("fit_ns", gp_fit_ns);
    bench.set("gp_fit", std::move(gp_fit));
    json::Value vis = json::Value::object();
    vis.set("render_prepr_ns", vision.render_prepr_ns);
    vis.set("render_full_ns", vision.render_full_ns);
    vis.set("render_cached_ns", vision.render_cached_ns);
    vis.set("render_speedup_vs_prepr", vision.render_speedup);
    vis.set("render_1536_ns", vision.render_1536_ns);
    vis.set("read_prepr_ns", vision.read_prepr_ns);
    vis.set("read_full_ns", vision.read_full_ns);
    vis.set("read_scratch_ns", vision.read_scratch_ns);
    vis.set("read_session_ns", vision.read_session_ns);
    vis.set("read_speedup_vs_prepr", vision.read_speedup);
    json::Value stages = json::Value::object();
    stages.set("to_gray_ns", vision.to_gray_ns);
    stages.set("blur_ns", vision.blur_ns);
    stages.set("adaptive_threshold_ns", vision.adaptive_ns);
    stages.set("detect_markers_ns", vision.detect_markers_ns);
    stages.set("hough_roi_ns", vision.hough_roi_ns);
    vis.set("stages", std::move(stages));
    bench.set("vision", std::move(vis));
    json::Value loop = json::Value::array();
    for (const LoopRow& row : loop_rows) {
        json::Value entry = json::Value::object();
        entry.set("scenario", row.scenario);
        entry.set("samples_per_sec", row.samples_per_sec);
        entry.set("batches_per_sec", row.batches_per_sec);
        loop.push_back(std::move(entry));
    }
    bench.set("loop", std::move(loop));
    try {
        support::atomic_write("BENCH_hotpath.json", bench.pretty() + "\n");
    } catch (const support::Error& error) {
        std::fprintf(stderr, "error: failed to write BENCH_hotpath.json: %s\n",
                     error.what());
        return 1;
    }
    std::printf("\nWrote BENCH_hotpath.json\n");
    return 0;
}
