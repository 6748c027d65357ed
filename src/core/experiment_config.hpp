// Experiment-level configuration and outcome types shared by the
// workcell runtime, the color-picker application, and the campaign layer.
//
// Split out of colorpicker.hpp so code that only needs the declarative
// experiment description (config I/O, campaign grids) does not pull in
// the application loop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "color/rgb.hpp"
#include "devices/barty.hpp"
#include "devices/camera.hpp"
#include "devices/ot2.hpp"
#include "devices/pf400.hpp"
#include "devices/sciclops.hpp"
#include "metrics/metrics.hpp"
#include "support/units.hpp"
#include "wei/engine.hpp"
#include "wei/faults.hpp"

namespace sdl::core {

/// Objective used to grade samples against the target.
enum class Objective { RgbEuclidean, DeltaE76, DeltaE2000 };

[[nodiscard]] double evaluate_objective(Objective objective, color::Rgb8 measured,
                                        color::Rgb8 target);

/// The resolved shape of the workcell an experiment runs on. Usually
/// produced by applying a declarative WorkcellSpec (workcell_spec.hpp) or
/// a named scenario (scenarios.hpp). The five Figure-2 instruments are
/// always mounted; a handling device marked absent is run by hand — the
/// same device model under the same module name, so the workflows run
/// unchanged, but its commands take `manual_handling` time and do not
/// count toward CCWH.
struct WorkcellTopology {
    /// Scenario name recorded in result documents ("baseline" when the
    /// workcell was not built from a spec).
    std::string scenario = "baseline";
    bool has_sciclops = true;
    bool has_pf400 = true;
    bool has_barty = true;
    /// Duration of one hand-run action (plate fetch, carry, pour).
    support::Duration manual_handling = support::Duration::seconds(20.0);
};

struct ColorPickerConfig {
    // --- experiment design (the paper's §3 knobs)
    color::Rgb8 target{120, 120, 120};
    int total_samples = 128;  ///< N
    int batch_size = 1;       ///< B
    std::string solver = "genetic";
    Objective objective = Objective::RgbEuclidean;
    /// Kept only because perfbench/twin_loop.cpp reads it; must be "strict".
    std::string linalg_backend = "strict";
    /// Stop early once the best score drops to this value (0 = never).
    double stop_threshold = 0.0;
    std::uint64_t seed = 1;

    // --- consumables & hardware
    int plate_rows = 8;
    int plate_cols = 12;
    /// Total dye volume dispensed per well; ratios scale within this.
    support::Volume well_volume = support::Volume::microliters(80.0);
    devices::SciclopsConfig sciclops;
    devices::Pf400Config pf400;
    devices::Ot2Config ot2;
    devices::BartyConfig barty;
    devices::CameraConfig camera;
    WorkcellTopology workcell;

    // --- control plane
    wei::FaultConfig faults;      ///< default: fault-free
    wei::RetryPolicy retry;
    metrics::MetricsConfig metrics;
    /// Vision hot path: track the fiducial across batches and rescan only
    /// its neighborhood (imaging::PlateReader). Readouts are bitwise
    /// identical with the flag on or off — it exists for identity tests
    /// and perf comparisons, and is deliberately not part of the YAML
    /// schema.
    bool vision_roi_fast_path = true;

    // --- publication
    bool publish = true;
    std::string experiment_id;  ///< auto-derived when empty
    std::string date = "2023-08-16";
};

/// The one plate-format check: throws ConfigError naming plate.rows or
/// plate.cols when a side is outside [1, 64] or [1, 96], so the well
/// count and the camera frame fit an int. An unset side (a workcell spec
/// that keeps the experiment's) is not checked here. The experiment and
/// workcell-spec readers, validate_workcell_spec and finalize_config
/// call it.
void check_plate_format(std::optional<std::int64_t> rows, std::optional<std::int64_t> cols);

/// Validates the experiment knobs and fills in a default experiment id.
/// WorkcellRuntime applies this on construction (and derives the device
/// noise streams from `seed`); callers that need the resolved id
/// (campaigns, reports) can call it directly. Throws support::LogicError
/// on invalid configs, ConfigError on a bad plate format, a well volume
/// that is not positive or a command-rejection probability outside
/// [0, 1) (config_io.hpp).
[[nodiscard]] ColorPickerConfig finalize_config(ColorPickerConfig config);

/// One measured sample in experiment order — the dots of Figure 4.
struct SamplePoint {
    int index = 0;                     ///< 1-based sample sequence number
    double elapsed_minutes = 0.0;      ///< x-axis of Figure 4
    double score = 0.0;
    double best_so_far = 0.0;          ///< y-axis of Figure 4
    std::vector<double> ratios;
    color::Rgb8 measured;
};

struct ExperimentOutcome {
    std::string experiment_id;
    std::vector<SamplePoint> samples;
    double best_score = 0.0;
    std::vector<double> best_ratios;
    color::Rgb8 best_color;
    bool reached_threshold = false;

    metrics::SdlMetrics metrics;   ///< snapshot at the final measurement
    int plates_used = 0;
    int replenishes = 0;
    int batches_run = 0;           ///< = published runs
    int frame_retakes = 0;         ///< unusable frames recovered by retaking
    int reprimes = 0;              ///< clogged-tip chains cleared by prime_tips

    // Vision diagnostics aggregated over all camera reads.
    std::size_t wells_rescued_total = 0;
    double mean_grid_residual_px = 0.0;
};

}  // namespace sdl::core
