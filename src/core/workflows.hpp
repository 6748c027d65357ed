// The four WEI workflows of the color-picker application (Figure 2):
// cp_wf_newplate, cp_wf_mixcolor, cp_wf_trashplate, cp_wf_replenish.
// Defined here in the same YAML notation a user would write on disk.
#pragma once

#include "wei/workflow.hpp"

namespace sdl::core {

/// sciclops stages a fresh plate, pf400 moves it to the camera nest,
/// barty fills the ot2 reservoirs.
[[nodiscard]] const wei::Workflow& wf_newplate();

/// pf400 moves the plate to the ot2, ot2 mixes the batch, pf400 returns
/// the plate, camera photographs it. The ot2 step is parameterized with
/// the batch's dispense orders via Workflow::with_step_args.
[[nodiscard]] const wei::Workflow& wf_mixcolor();

/// pf400 drops the plate in the trash, barty drains the reservoirs.
[[nodiscard]] const wei::Workflow& wf_trashplate();

/// barty drains and refills the reservoirs with fresh dye.
[[nodiscard]] const wei::Workflow& wf_replenish();

/// barty (robot-run or run by hand) back-flushes the OT2 pipette tips —
/// recovery for the clogged-tip fault chain (devices::Ot2Config::clog_prob).
[[nodiscard]] const wei::Workflow& wf_reprime();

/// camera retakes a photograph (recovery when a frame is unusable —
/// occluded fiducial, reflection — which the vision pipeline detects).
[[nodiscard]] const wei::Workflow& wf_retake();

/// Step name of the parameterizable ot2 step inside wf_mixcolor().
inline constexpr const char* kMixStepName = "mix colors";

/// All four workflows (for tooling: Figure-2 graph dumps etc.).
[[nodiscard]] std::vector<const wei::Workflow*> all_workflows();

}  // namespace sdl::core
