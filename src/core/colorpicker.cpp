#include "core/colorpicker.hpp"

#include <algorithm>
#include <cmath>

#include "core/workflows.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "solver/factory.hpp"
#include "support/common.hpp"
#include "support/log.hpp"

namespace sdl::core {

namespace json = support::json;
using support::Duration;
using support::TimePoint;
using support::Volume;

namespace {
/// Retake attempts before an unusable camera frame aborts the run.
constexpr int kMaxRetakes = 3;
}  // namespace

ColorPickerApp::ColorPickerApp(ColorPickerConfig config)
    : owned_runtime_(std::make_unique<WorkcellRuntime>(std::move(config))),
      runtime_(owned_runtime_.get()) {
    runtime_->claim();
    init_solver();
}

ColorPickerApp::ColorPickerApp(WorkcellRuntime& runtime) : runtime_(&runtime) {
    runtime_->claim();
    init_solver();
}

void ColorPickerApp::init_solver() {
    const ColorPickerConfig& config = runtime_->config();
    solver::SolverOptions solver_options;
    solver_options.seed = config.seed;
    solver_options.mixer = &runtime_->ot2().mixer();
    solver_options.target = config.target;
    solver_ = solver::make_solver(config.solver, solver_options);
}

void ColorPickerApp::ensure_plate_with_room(int batch) {
    if (current_plate_.has_value()) {
        const wei::Plate& plate = runtime_->plates().get(*current_plate_);
        const int free = plate.capacity() - plate.filled_count();
        if (free >= batch) return;
        // Plate full (for this batch): Figure 2's "Check: Plate Full" path.
        (void)runtime_->engine().run(wf_trashplate());
        current_plate_.reset();
    }
    const wei::WorkflowRunStats stats = runtime_->engine().run(wf_newplate());
    current_plate_ = stats.results.at(0).data.at("plate_id").as_int();
    ++outcome_.plates_used;
}

void ColorPickerApp::ensure_reservoirs(std::span<const devices::DispenseOrder> orders) {
    if (runtime_->ot2().can_cover(orders)) return;
    // Figure 2's "Check: Refill Color" path.
    (void)runtime_->engine().run(wf_replenish());
    ++outcome_.replenishes;
}

void ColorPickerApp::ensure_primed() {
    if (!runtime_->ot2().needs_prime()) return;
    // Clogged-tip chain: the previous protocol left a tip clogged, and the
    // next one would hard-fail. Barty (robot-run or run by hand)
    // back-flushes the tips first.
    (void)runtime_->engine().run(wf_reprime());
    ++outcome_.reprimes;
}

ColorPickerApp::BatchReadout ColorPickerApp::mix_and_measure(
    const std::vector<std::vector<double>>& proposals, const std::vector<int>& wells) {
    const ColorPickerConfig& config = runtime_->config();
    // Translate ratio proposals into dispense orders.
    std::vector<devices::DispenseOrder> orders;
    orders.reserve(proposals.size());
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        devices::DispenseOrder order;
        order.well = wells[i];
        double sum = 0.0;
        for (const double r : proposals[i]) sum += r;
        for (std::size_t dye = 0; dye < color::kDyes; ++dye) {
            // Normalize so each well holds exactly well_volume of liquid.
            order.volumes[dye] = config.well_volume * (proposals[i][dye] / sum);
        }
        orders.push_back(order);
    }
    ensure_reservoirs(orders);
    ensure_primed();

    const wei::Workflow mix =
        wf_mixcolor().with_step_args(kMixStepName, devices::Ot2Sim::make_protocol_args(orders));
    const wei::WorkflowRunStats stats = runtime_->engine().run(mix);
    std::int64_t frame_id = stats.results.back().data.at("frame_id").as_int();

    // §2.4 vision pipeline on the captured frame. An unusable frame
    // (occluded fiducial, reflection) is recovered by retaking the photo
    // — the plate is already sitting on the camera nest.
    const imaging::PlateScene scene = imaging::scene_for_plate(
        runtime_->camera().scene(), config.plate_rows, config.plate_cols);
    imaging::WellReadParams read_params;
    read_params.geometry = scene.geometry;
    const auto read_frame = [&](std::int64_t id) {
        if (!config.vision_roi_fast_path) {
            return imaging::read_plate(runtime_->camera().frame(id), read_params);
        }
        if (!reader_.has_value()) {
            reader_.emplace(read_params, imaging::calibrated_marker_pose(scene));
        }
        return reader_->read(runtime_->camera().lazy_frame(id));
    };
    imaging::WellReadout readout = read_frame(frame_id);
    int retakes = 0;
    while (!readout.ok && retakes < kMaxRetakes) {
        ++retakes;
        support::log_warn("colorpicker", "unusable frame (", readout.error,
                          "); retaking photo (attempt ", retakes, ")");
        const wei::WorkflowRunStats retake = runtime_->engine().run(wf_retake());
        frame_id = retake.results.back().data.at("frame_id").as_int();
        readout = read_frame(frame_id);
    }
    if (!readout.ok) {
        throw wei::WorkflowError("vision pipeline failed after " +
                                 std::to_string(retakes) +
                                 " retakes: " + readout.error);
    }
    outcome_.frame_retakes += retakes;

    BatchReadout result;
    result.frame_id = frame_id;
    result.wells_rescued = readout.wells_rescued;
    result.grid_residual_px = readout.grid_residual_px;
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        solver::Observation obs;
        obs.ratios = proposals[i];
        obs.measured = readout.colors.at(static_cast<std::size_t>(wells[i]));
        obs.score = evaluate_objective(config.objective, obs.measured, config.target);
        result.observations.push_back(std::move(obs));
    }
    return result;
}

void ColorPickerApp::publish_experiment_header() {
    const ColorPickerConfig& config = runtime_->config();
    data::ExperimentRecord record;
    record.experiment_id = config.experiment_id;
    record.date = config.date;
    record.solver = solver_->name();
    record.target = config.target;
    record.batch_size = config.batch_size;
    record.total_samples = samples_done_;
    record.run_count = outcome_.batches_run;
    runtime_->flow().publish(record.to_json());
}

void ColorPickerApp::publish_run(int run_number,
                                 std::span<const solver::Observation> observations,
                                 const std::vector<int>& wells, TimePoint started,
                                 std::int64_t frame_id) {
    const ColorPickerConfig& config = runtime_->config();
    data::RunRecord record;
    record.experiment_id = config.experiment_id;
    record.run_number = run_number;
    record.started = started;
    record.ended = runtime_->transport().now();
    record.image_ref = "plate_frame_" + std::to_string(frame_id) + ".ppm";
    record.best_score = outcome_.best_score;
    for (std::size_t i = 0; i < observations.size(); ++i) {
        data::SampleRecord sample;
        sample.sample_index = samples_done_ - static_cast<int>(observations.size()) +
                              static_cast<int>(i) + 1;
        sample.well = wells[i];
        sample.ratios = observations[i].ratios;
        double sum = 0.0;
        for (const double r : observations[i].ratios) sum += r;
        for (const double r : observations[i].ratios) {
            sample.volumes_ul.push_back(config.well_volume.to_microliters() * r / sum);
        }
        sample.measured = observations[i].measured;
        sample.score = observations[i].score;
        sample.best_score_so_far =
            outcome_.samples[static_cast<std::size_t>(sample.sample_index - 1)].best_so_far;
        sample.measured_at = record.ended;
        record.samples.push_back(std::move(sample));
    }
    runtime_->flow().publish(record.to_json());
}

ExperimentOutcome ColorPickerApp::run() {
    support::check(!ran_, "ColorPickerApp::run() may only be called once");
    ran_ = true;
    const ColorPickerConfig& config = runtime_->config();
    outcome_.experiment_id = config.experiment_id;
    outcome_.best_score = 1e300;

    double residual_sum = 0.0;
    std::size_t residual_count = 0;

    while (samples_done_ < config.total_samples) {
        if (config.stop_threshold > 0.0 && outcome_.best_score <= config.stop_threshold) {
            outcome_.reached_threshold = true;
            break;
        }
        const int batch =
            std::min(config.batch_size, config.total_samples - samples_done_);
        ensure_plate_with_room(batch);

        // Assign the batch to the next free wells on the current plate.
        wei::Plate& plate = runtime_->plates().get(*current_plate_);
        std::vector<int> wells;
        int well_cursor = plate.next_free_well().value_or(0);
        for (int i = 0; i < batch; ++i) {
            while (plate.is_filled(well_cursor)) ++well_cursor;
            wells.push_back(well_cursor);
            ++well_cursor;
        }

        const TimePoint batch_start = runtime_->transport().now();
        const auto proposals = solver_->ask(static_cast<std::size_t>(batch));
        BatchReadout readout = mix_and_measure(proposals, wells);

        // Score bookkeeping + Figure-4 series.
        for (const solver::Observation& obs : readout.observations) {
            ++samples_done_;
            if (obs.score < outcome_.best_score) {
                outcome_.best_score = obs.score;
                outcome_.best_ratios = obs.ratios;
                outcome_.best_color = obs.measured;
            }
            SamplePoint point;
            point.index = samples_done_;
            point.elapsed_minutes = runtime_->transport().now().to_minutes();
            point.score = obs.score;
            point.best_so_far = outcome_.best_score;
            point.ratios = obs.ratios;
            point.measured = obs.measured;
            outcome_.samples.push_back(std::move(point));
        }
        outcome_.wells_rescued_total += readout.wells_rescued;
        residual_sum += readout.grid_residual_px;
        ++residual_count;
        ++outcome_.batches_run;

        // Publish asynchronously (the Globus flow runs while the robots
        // keep working) and feed the solver. The experiment header goes up
        // once at the start; the per-batch run records are the "distinct
        // data upload steps" the paper counts.
        if (config.publish) {
            if (outcome_.batches_run == 1) publish_experiment_header();
            publish_run(outcome_.batches_run, readout.observations, wells, batch_start,
                        readout.frame_id);
        }
        solver_->tell(readout.observations);
        support::log_info("colorpicker", "batch ", outcome_.batches_run, " done: best=",
                          outcome_.best_score, " after ", samples_done_, " samples");
    }

    // The experiment ends at the last measurement; metrics snapshot now,
    // before teardown housekeeping.
    outcome_.metrics =
        metrics::compute_metrics(runtime_->event_log(), samples_done_,
                                 runtime_->flow().completion_times(), config.metrics);
    outcome_.mean_grid_residual_px =
        residual_count > 0 ? residual_sum / static_cast<double>(residual_count) : 0.0;

    // Figure 2: terminal cp_wf_trashplate once termination criteria hold.
    if (current_plate_.has_value()) {
        (void)runtime_->engine().run(wf_trashplate());
        current_plate_.reset();
    }
    // Final experiment header carries the completed totals; let in-flight
    // publications land so the portal is complete.
    if (config.publish && outcome_.batches_run > 0) publish_experiment_header();
    runtime_->sim().run_all();

    return outcome_;
}

}  // namespace sdl::core
