// camera — "a Logitech webcam mounted with a ring light that is used to
// capture images of the microplate. This module incorporates a microplate
// mount designed to allow the pf400 to place the microplate in the same
// location each time" (§2.2).
//
// The simulated camera renders the plate currently sitting on its nest
// with the synthetic scene renderer (sensor noise, vignetting, lighting
// gradient) and archives the frame; the application retrieves frames by
// id and runs the §2.4 vision pipeline on them — the full code path a
// real webcam would feed. Each capture advances the camera's generator
// by at most two draws, whatever the frame size: the glitch roll (only
// when 0 < glitch_prob < 1) and the frame's noise key.
#pragma once

#include <map>

#include "devices/timing.hpp"
#include "imaging/plate_render.hpp"
#include "support/random.hpp"
#include "wei/module.hpp"
#include "wei/plate.hpp"

namespace sdl::devices {

struct CameraConfig {
    imaging::PlateScene scene;  ///< geometry + nuisances; rows/cols follow the plate
    /// Seeds the glitch rolls and the per-frame sensor-noise keys.
    std::uint64_t noise_seed = 0xCA3E7A;
    CameraTiming timing;
    /// Nest location photographed by this camera.
    std::string nest_location = wei::locations::kCamera;
    /// Frames retained in the ring buffer (raw images are big).
    std::size_t max_frames = 16;
    /// Probability that a frame is unusable (fiducial occluded — e.g. the
    /// arm's shadow or a reflection). The capture *succeeds* at the
    /// device level; the vision pipeline discovers the problem and the
    /// application retakes the photo.
    double glitch_prob = 0.0;
    /// Per-frame growth of the horizontal illumination gradient: the ring
    /// light warms up over a campaign, slowly tilting the shading the
    /// vision pipeline has to read colors through. Frame 1 is undrifted.
    double drift_per_frame = 0.0;
};

/// Actions:
///   take_picture — renders the plate on the nest; returns {frame_id,
///                  plate_id} in the result data.
class CameraSim final : public wei::Module {
public:
    CameraSim(CameraConfig config, wei::PlateRegistry& plates,
              wei::LocationMap& locations);

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override;
    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override;

    /// Retrieves an archived frame; throws Error("device") for evicted or
    /// unknown ids.
    [[nodiscard]] const imaging::Image& frame(std::int64_t frame_id) const;

    [[nodiscard]] const imaging::PlateScene& scene() const noexcept { return config_.scene; }
    [[nodiscard]] std::int64_t frames_captured() const noexcept { return next_frame_id_ - 1; }

private:
    CameraConfig config_;
    wei::PlateRegistry& plates_;
    wei::LocationMap& locations_;
    wei::ModuleInfo info_;
    support::Rng rng_;
    imaging::PlateRenderer renderer_;  ///< base-raster cache across captures
    std::map<std::int64_t, imaging::Image> frames_;
    std::int64_t next_frame_id_ = 1;
};

}  // namespace sdl::devices
