// The color-picker application: the paper's primary contribution.
//
// Implements the closed loop of Figure 2 on the simulated RPL workcell:
//   1. cp_wf_newplate when a fresh plate is needed;
//   2. solver proposes a batch of dye-volume recipes;
//   3. cp_wf_mixcolor mixes the batch and photographs the plate;
//   4. the §2.4 vision pipeline reads the new well colors;
//   5. results are published through the (simulated) Globus flow to the
//      data portal while the loop continues;
//   6. the solver is told the scored observations; repeat until the
//      sample budget is exhausted or the target is matched;
//   7. cp_wf_trashplate / cp_wf_replenish handle plate and reservoir
//      housekeeping along the way.
//
// The workcell itself — devices, transport, engine, event log, data
// plane — lives in a WorkcellRuntime the app owns; this class only drives
// the loop.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/experiment_config.hpp"
#include "core/workcell_runtime.hpp"
#include "imaging/well_reader.hpp"
#include "solver/solver.hpp"

namespace sdl::core {

/// Runs one experiment to completion on a workcell runtime. Construct,
/// call run() once, then inspect the outcome, the portal, or the event
/// log.
class ColorPickerApp {
public:
    /// Builds and owns the WorkcellRuntime for `config`.
    explicit ColorPickerApp(ColorPickerConfig config);

    /// Executes the experiment to completion.
    [[nodiscard]] ExperimentOutcome run();

    // Post-run inspection.
    [[nodiscard]] const WorkcellRuntime& runtime() const noexcept { return *runtime_; }
    [[nodiscard]] const data::DataPortal& portal() const noexcept {
        return runtime_->portal();
    }
    [[nodiscard]] const wei::EventLog& event_log() const noexcept {
        return runtime_->event_log();
    }
    [[nodiscard]] const devices::CameraSim& camera() const noexcept {
        return runtime_->camera();
    }
    [[nodiscard]] const ColorPickerConfig& config() const noexcept {
        return runtime_->config();
    }

private:
    struct BatchReadout {
        std::vector<solver::Observation> observations;
        std::int64_t frame_id = 0;
        std::size_t wells_rescued = 0;
        double grid_residual_px = 0.0;
    };

    void ensure_plate_with_room(int batch);
    void ensure_reservoirs(std::span<const devices::DispenseOrder> orders);
    void ensure_primed();
    [[nodiscard]] BatchReadout mix_and_measure(
        const std::vector<std::vector<double>>& proposals,
        const std::vector<int>& wells);
    void publish_run(int run_number, std::span<const solver::Observation> observations,
                     const std::vector<int>& wells, support::TimePoint started,
                     std::int64_t frame_id);
    void publish_experiment_header();

    std::unique_ptr<WorkcellRuntime> runtime_;
    std::unique_ptr<solver::Solver> solver_;
    /// Session vision reader: reuses the frame scratch pool, tracks the
    /// marker ROI across batches from the calibrated pose on, and renders
    /// only the parts of each lazy camera frame it reads (bitwise
    /// identical to per-frame read_plate on the whole frame; see
    /// ColorPickerConfig::vision_roi_fast_path).
    std::optional<imaging::PlateReader> reader_;

    ExperimentOutcome outcome_;
    std::optional<wei::PlateId> current_plate_;
    int samples_done_ = 0;
    bool ran_ = false;
};

}  // namespace sdl::core
