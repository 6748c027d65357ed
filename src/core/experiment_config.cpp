#include "core/experiment_config.hpp"

#include "color/lab.hpp"
#include "support/common.hpp"

namespace sdl::core {

double evaluate_objective(Objective objective, color::Rgb8 measured, color::Rgb8 target) {
    switch (objective) {
        case Objective::RgbEuclidean: return color::rgb_distance(measured, target);
        case Objective::DeltaE76:
            return color::delta_e76(color::to_lab(measured), color::to_lab(target));
        case Objective::DeltaE2000:
            return color::delta_e2000(color::to_lab(measured), color::to_lab(target));
    }
    return 0.0;
}

ColorPickerConfig finalize_config(ColorPickerConfig config) {
    support::check(config.total_samples > 0, "total_samples must be positive");
    support::check(config.batch_size > 0, "batch_size must be positive");
    if (config.plate_rows < 1 || config.plate_cols < 1) {
        throw support::ConfigError(config.plate_rows < 1 ? "plate.rows must be positive"
                                                         : "plate.cols must be positive");
    }
    support::check(config.batch_size <= config.plate_rows * config.plate_cols,
                   "batch cannot exceed plate capacity");
    support::check(config.workcell.manual_handling.to_seconds() >= 0.0,
                   "manual_handling cannot be negative");
    // There is one linalg implementation; a caller still selecting
    // another fails loudly instead of being ignored.
    if (config.linalg_backend != "strict") {
        throw support::ConfigError("linalg_backend '" + config.linalg_backend +
                                   "' is not selectable; only \"strict\" is accepted");
    }
    // Derive device noise streams from the experiment seed so a seed fully
    // determines the run.
    config.ot2.noise_seed = config.seed * 0x9E3779B9ULL + 0x07B2;
    config.camera.noise_seed = config.seed * 0x85EBCA6BULL + 0xCA3E;
    config.faults.seed = config.seed * 0xC2B2AE35ULL + 0xFA11;
    config.flow.seed = config.seed * 0x27D4EB2FULL + 0x910B;
    if (config.experiment_id.empty()) {
        config.experiment_id = "color_picker_" + config.date + "_B" +
                               std::to_string(config.batch_size) + "_s" +
                               std::to_string(config.seed);
    }
    return config;
}

}  // namespace sdl::core
