#include "devices/camera.hpp"

#include "support/common.hpp"

namespace sdl::devices {

namespace json = support::json;

CameraSim::CameraSim(CameraConfig config, wei::PlateRegistry& plates,
                     wei::LocationMap& locations)
    : config_(std::move(config)),
      plates_(plates),
      locations_(locations),
      rng_(config_.noise_seed) {
    info_ = wei::ModuleInfo{
        "camera",
        "Logitech webcam + ring light",
        "plate imaging station",
        {"take_picture"},
        /*robotic=*/false,  // a sensor: its reads are not robotic commands
    };
}

support::Duration CameraSim::estimate(const wei::ActionRequest& request) const {
    (void)request;
    return config_.timing.capture;
}

wei::ActionResult CameraSim::execute(const wei::ActionRequest& request) {
    if (request.action != "take_picture") {
        return wei::ActionResult::failure("camera: unknown action '" + request.action + "'");
    }
    const auto plate_id = locations_.peek(config_.nest_location);
    if (!plate_id.has_value()) {
        return wei::ActionResult::failure("camera: no plate on the nest");
    }
    const wei::Plate& plate = plates_.get(*plate_id);

    // Scene geometry follows the plate dimensions (dense 384/1536 formats
    // shrink the pitch and upscale the frame); everything else (marker
    // pose, noise, lighting) comes from the configured scene.
    imaging::PlateScene scene =
        imaging::scene_for_plate(config_.scene, plate.rows(), plate.cols());

    // Ring-light warm-up: the shading gradient drifts a little with every
    // frame captured so far.
    const bool drifted = config_.drift_per_frame != 0.0;
    if (drifted) {
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
    // Glitched scenes (marker moved) would evict the base cache twice per
    // glitch, and drifted scenes change every frame, so the cache could
    // never hit; render both one-shot. Either path produces
    // bitwise-identical frames.
    if (!glitched && !drifted) {
        frames_.emplace(frame_id, renderer_.render(scene, colors, rng_, &filled));
    } else {
        frames_.emplace(frame_id, imaging::render_plate(scene, colors, rng_, &filled));
    }
    while (frames_.size() > config_.max_frames) {
        frames_.erase(frames_.begin());  // evict the oldest frame
    }

    json::Value data = json::Value::object();
    data.set("frame_id", frame_id);
    data.set("plate_id", *plate_id);
    data.set("wells_filled", plate.filled_count());
    data.set("glitched", glitched);  // ground truth for tests; the real
                                     // pipeline must detect this itself
    return wei::ActionResult::success(std::move(data));
}

const imaging::Image& CameraSim::frame(std::int64_t frame_id) const {
    const auto it = frames_.find(frame_id);
    if (it == frames_.end()) {
        throw support::Error("device", "camera frame " + std::to_string(frame_id) +
                                           " not available (evicted or never captured)");
    }
    return it->second;
}

}  // namespace sdl::devices
