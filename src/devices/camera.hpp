// camera — "a Logitech webcam mounted with a ring light that is used to
// capture images of the microplate. This module incorporates a microplate
// mount designed to allow the pf400 to place the microplate in the same
// location each time" (§2.2).
//
// The simulated camera photographs the plate currently sitting on its
// nest with the synthetic scene renderer (sensor noise, vignetting,
// lighting gradient). It holds the last frame it took, as its recipe,
// and renders pixels on demand (imaging::LazyFrame): the application
// hands the lazy frame to the §2.4 vision pipeline, which renders only
// the regions it reads — the full code path a real webcam would feed, at
// the cost of the pixels used. The loop reads each frame before the next
// capture, which replaces it. Each capture advances the camera's
// generator by at most two draws, whatever the frame size: the glitch
// roll (only when 0 < glitch_prob < 1) and the frame's noise key.
#pragma once

#include <optional>

#include "devices/timing.hpp"
#include "imaging/plate_render.hpp"
#include "support/random.hpp"
#include "wei/module.hpp"
#include "wei/plate.hpp"

namespace sdl::devices {

struct CameraConfig {
    CameraTiming timing;
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
    /// `noise_seed` seeds the glitch rolls and the per-frame sensor-noise
    /// keys.
    CameraSim(CameraConfig config, std::uint64_t noise_seed, wei::PlateRegistry& plates,
              wei::LocationMap& locations);

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override;
    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override;

    /// The last frame taken, rendered whole; throws Error("device") for
    /// any other id (replaced or never captured).
    [[nodiscard]] const imaging::Image& frame(std::int64_t frame_id);
    /// The last frame as captured: rendered only where already asked for.
    /// Same errors as frame().
    [[nodiscard]] imaging::LazyFrame& lazy_frame(std::int64_t frame_id);

    /// The calibrated scene every frame is drawn from; its rows and cols
    /// follow each plate photographed.
    [[nodiscard]] const imaging::PlateScene& scene() const noexcept { return scene_; }
    [[nodiscard]] std::int64_t frames_captured() const noexcept { return next_frame_id_ - 1; }
    /// Pixels rendered so far over every frame captured, replaced ones
    /// included.
    [[nodiscard]] std::size_t pixels_rendered() const noexcept;

private:
    CameraConfig config_;
    imaging::PlateScene scene_;
    wei::PlateRegistry& plates_;
    wei::LocationMap& locations_;
    wei::ModuleInfo info_;
    support::Rng rng_;
    /// The last capture: frame id next_frame_id_ - 1.
    std::optional<imaging::LazyFrame> frame_;
    std::int64_t next_frame_id_ = 1;
    std::size_t replaced_pixels_rendered_ = 0;
};

}  // namespace sdl::devices
