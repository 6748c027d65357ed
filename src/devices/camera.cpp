#include "devices/camera.hpp"

#include "support/common.hpp"

namespace sdl::devices {

namespace json = support::json;

CameraSim::CameraSim(CameraConfig config, std::uint64_t noise_seed, wei::PlateRegistry& plates,
                     wei::LocationMap& locations)
    : config_(config), plates_(plates), locations_(locations), rng_(noise_seed) {
    // A sensor: its reads are not robotic commands.
    info_ = wei::ModuleInfo{"camera", /*robotic=*/false};
}

support::Duration CameraSim::estimate(const wei::ActionRequest& request) const {
    (void)request;
    return config_.timing.capture;
}

wei::ActionResult CameraSim::execute(const wei::ActionRequest& request) {
    if (request.action != "take_picture") {
        return wei::ActionResult::failure("camera: unknown action '" + request.action + "'");
    }
    const auto plate_id = locations_.peek(wei::locations::kCamera);
    if (!plate_id.has_value()) {
        return wei::ActionResult::failure("camera: no plate on the nest");
    }
    const wei::Plate& plate = plates_.get(*plate_id);

    // Scene geometry follows the plate dimensions (dense 384/1536 formats
    // shrink the pitch and upscale the frame); everything else (marker
    // pose, noise, lighting) comes from the calibrated scene.
    imaging::PlateScene scene = imaging::scene_for_plate(scene_, plate.rows(), plate.cols());

    // Ring-light warm-up: the shading gradient drifts a little with every
    // frame captured so far.
    if (config_.drift_per_frame != 0.0) {
        scene.illum_gradient.x +=
            config_.drift_per_frame * static_cast<double>(next_frame_id_ - 1);
    }

    // Glitched frame: the fiducial is occluded (moved far out of frame),
    // making the image undecodable downstream.
    const bool glitched = rng_.bernoulli(config_.glitch_prob);
    if (glitched) {
        scene.marker_center = {-10000.0, -10000.0};
    }

    std::vector<color::Rgb8> colors(static_cast<std::size_t>(plate.capacity()),
                                    color::Rgb8{0, 0, 0});
    std::vector<bool> filled(static_cast<std::size_t>(plate.capacity()), false);
    for (int well = 0; well < plate.capacity(); ++well) {
        if (plate.is_filled(well)) {
            const auto idx = static_cast<std::size_t>(well);
            colors[idx] = plate.content(well).true_color;
            filled[idx] = true;
        }
    }

    const std::int64_t frame_id = next_frame_id_++;
    if (frame_) replaced_pixels_rendered_ += frame_->pixels_rendered();
    frame_.emplace(scene, colors, rng_.next(), &filled);

    json::Value data = json::Value::object();
    data.set("frame_id", frame_id);
    data.set("plate_id", *plate_id);
    data.set("wells_filled", plate.filled_count());
    data.set("glitched", glitched);  // ground truth for tests; the real
                                     // pipeline must detect this itself
    return wei::ActionResult::success(std::move(data));
}

const imaging::Image& CameraSim::frame(std::int64_t frame_id) {
    imaging::LazyFrame& lazy = lazy_frame(frame_id);
    lazy.materialize(lazy.bounds());
    return lazy.image();
}

imaging::LazyFrame& CameraSim::lazy_frame(std::int64_t frame_id) {
    if (!frame_ || frame_id != frames_captured()) {
        throw support::Error("device", "camera frame " + std::to_string(frame_id) +
                                           " not available (the camera keeps only "
                                           "its last capture)");
    }
    return *frame_;
}

std::size_t CameraSim::pixels_rendered() const noexcept {
    return replaced_pixels_rendered_ + (frame_ ? frame_->pixels_rendered() : 0);
}

}  // namespace sdl::devices
