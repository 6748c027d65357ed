#include "core/experiment_config.hpp"

#include "color/lab.hpp"
#include "core/config_io.hpp"
#include "support/common.hpp"

namespace sdl::core {

/// The largest plate format: 64 x 96 wells. Its well count and the camera
/// frame imaging::scene_for_plate draws it in (800 x 600 upscaled 8x)
/// fit an int with room to spare.
constexpr int kMaxPlateRows = 64;
constexpr int kMaxPlateCols = 96;

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

void check_plate_format(std::optional<std::int64_t> rows, std::optional<std::int64_t> cols) {
    const auto check_side = [](std::optional<std::int64_t> value, int max, const char* key) {
        if (value && (*value < 1 || *value > max)) {
            throw support::ConfigError(std::string(key) + " must be an integer in [1, " +
                                       std::to_string(max) + "], got " +
                                       std::to_string(*value));
        }
    };
    check_side(rows, kMaxPlateRows, "plate.rows");
    check_side(cols, kMaxPlateCols, "plate.cols");
}

ColorPickerConfig finalize_config(ColorPickerConfig config) {
    support::check(config.total_samples > 0, "total_samples must be positive");
    support::check(config.batch_size > 0, "batch_size must be positive");
    check_plate_format(config.plate_rows, config.plate_cols);
    support::check(config.batch_size <= config.plate_rows * config.plate_cols,
                   "batch cannot exceed plate capacity");
    support::check(config.workcell.manual_handling.to_seconds() >= 0.0,
                   "manual_handling cannot be negative");
    check_well_volume(config.well_volume);
    check_rejection_probabilities(config.faults);
    // There is one linalg implementation; a caller still selecting
    // another fails loudly instead of being ignored.
    if (config.linalg_backend != "strict") {
        throw support::ConfigError("linalg_backend '" + config.linalg_backend +
                                   "' is not selectable; only \"strict\" is accepted");
    }
    if (config.experiment_id.empty()) {
        config.experiment_id = "color_picker_" + config.date + "_B" +
                               std::to_string(config.batch_size) + "_s" +
                               std::to_string(config.seed);
    }
    return config;
}

}  // namespace sdl::core
