#include "twin_loop.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>

#include "core/workcell_runtime.hpp"
#include "core/workflows.hpp"
#include "data/record.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "solver/factory.hpp"
#include "support/log.hpp"
#include "wei/transport.hpp"

namespace perfbench {

using namespace sdl;

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
    tracer_.spans_.push_back({std::move(name), tracer_.open_, now_ns(), 0});
    tracer_.open_ = static_cast<int>(index_);
}

Tracer::Scope::~Scope() {
    Span& span = tracer_.spans_[index_];
    span.end_ns = now_ns();
    tracer_.open_ = span.parent;
}

std::int64_t Tracer::now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/// Retake attempts before an unusable frame aborts the run (as in
/// ColorPickerApp).
constexpr int kMaxRetakes = 3;

/// Forwards every device request to the runtime's transport inside a
/// "devices.<module>" span.
class TimingTransport final : public wei::Transport {
public:
    TimingTransport(wei::Transport& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override {
        const Tracer::Scope span(tracer_, "devices." + request.module);
        return inner_.execute(request);
    }
    [[nodiscard]] support::TimePoint now() const override { return inner_.now(); }
    void wait(support::Duration duration) override { inner_.wait(duration); }

private:
    wei::Transport& inner_;
    Tracer& tracer_;
};

/// ColorPickerApp::run, repeated through public calls with a span around
/// each layer call. Keep it in step with src/core/colorpicker.cpp: any
/// drift shows up as an outcome mismatch, never as silent bad timings.
class TwinLoop {
public:
    TwinLoop(core::WorkcellRuntime& runtime, Tracer& tracer)
        : runtime_(runtime),
          tracer_(tracer),
          transport_(runtime.transport(), tracer),
          engine_(transport_, runtime.registry(), log_, runtime.config().retry) {
        runtime_.claim();
        const core::ColorPickerConfig& config = runtime_.config();
        solver::SolverOptions options;
        options.dims = 4;
        options.seed = config.seed;
        options.mixer = &runtime_.ot2().mixer();
        options.target = config.target;
        options.linalg_backend = config.linalg_backend;
        solver_ = solver::make_solver(config.solver, options);
    }

    TwinRun run();

private:
    struct BatchReadout {
        std::vector<solver::Observation> observations;
        std::int64_t frame_id = 0;
        std::size_t wells_rescued = 0;
        double grid_residual_px = 0.0;
    };

    wei::WorkflowRunStats run_workflow(const wei::Workflow& workflow);
    void ensure_plate_with_room(int batch);
    void ensure_reservoirs(std::span<const devices::DispenseOrder> orders);
    void ensure_primed();
    imaging::WellReadout read_frame(std::int64_t frame_id);
    BatchReadout mix_and_measure(const std::vector<std::vector<double>>& proposals,
                                 const std::vector<int>& wells);
    void publish(support::json::Value document);
    void publish_experiment_header();
    void publish_run(int run_number, std::span<const solver::Observation> observations,
                     const std::vector<int>& wells, support::TimePoint started,
                     std::int64_t frame_id);

    core::WorkcellRuntime& runtime_;
    Tracer& tracer_;
    TimingTransport transport_;
    wei::EventLog log_;
    wei::WorkflowEngine engine_;
    std::unique_ptr<solver::Solver> solver_;
    std::optional<imaging::PlateReader> reader_;

    core::ExperimentOutcome outcome_;
    TwinCounters counters_;
    std::optional<wei::PlateId> current_plate_;
    int samples_done_ = 0;
};

wei::WorkflowRunStats TwinLoop::run_workflow(const wei::Workflow& workflow) {
    const Tracer::Scope span(tracer_, "wei.workflow");
    wei::WorkflowRunStats stats = engine_.run(workflow);
    counters_.rejections += stats.rejections;
    counters_.interventions += stats.interventions;
    return stats;
}

void TwinLoop::ensure_plate_with_room(int batch) {
    if (current_plate_.has_value()) {
        const wei::Plate& plate = runtime_.plates().get(*current_plate_);
        const int free = plate.capacity() - plate.filled_count();
        if (free >= batch) return;
        (void)run_workflow(core::wf_trashplate());
        current_plate_.reset();
    }
    const wei::WorkflowRunStats stats = run_workflow(core::wf_newplate());
    current_plate_ = stats.results.at(0).data.at("plate_id").as_int();
    ++outcome_.plates_used;
}

void TwinLoop::ensure_reservoirs(std::span<const devices::DispenseOrder> orders) {
    if (runtime_.ot2().can_cover(orders)) return;
    (void)run_workflow(core::wf_replenish());
    ++outcome_.replenishes;
}

void TwinLoop::ensure_primed() {
    if (!runtime_.ot2().needs_prime()) return;
    (void)run_workflow(core::wf_reprime());
    ++outcome_.reprimes;
}

imaging::WellReadout TwinLoop::read_frame(std::int64_t frame_id) {
    const Tracer::Scope span(tracer_, "imaging.read");
    const core::ColorPickerConfig& config = runtime_.config();
    const imaging::Image& frame = runtime_.camera().frame(frame_id);
    counters_.megapixels += static_cast<double>(frame.width()) * frame.height() / 1e6;
    imaging::WellReadParams params;
    params.geometry = imaging::scene_for_plate(runtime_.camera().scene(), config.plate_rows,
                                               config.plate_cols)
                          .geometry;
    if (!config.vision_roi_fast_path) return imaging::read_plate(frame, params);
    if (!reader_.has_value()) reader_.emplace(params);
    return reader_->read(frame);
}

TwinLoop::BatchReadout TwinLoop::mix_and_measure(
    const std::vector<std::vector<double>>& proposals, const std::vector<int>& wells) {
    const core::ColorPickerConfig& config = runtime_.config();
    std::vector<devices::DispenseOrder> orders;
    orders.reserve(proposals.size());
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        devices::DispenseOrder order;
        order.well = wells[i];
        double sum = 0.0;
        for (const double r : proposals[i]) sum += r;
        for (std::size_t dye = 0; dye < 4; ++dye) {
            order.volumes[dye] = config.well_volume * (proposals[i][dye] / sum);
        }
        orders.push_back(order);
    }
    ensure_reservoirs(orders);
    ensure_primed();

    const wei::Workflow mix = core::wf_mixcolor().with_step_args(
        core::kMixStepName, devices::Ot2Sim::make_protocol_args(orders));
    const wei::WorkflowRunStats stats = run_workflow(mix);
    std::int64_t frame_id = stats.results.back().data.at("frame_id").as_int();

    imaging::WellReadout readout = read_frame(frame_id);
    int retakes = 0;
    while (!readout.ok && retakes < kMaxRetakes) {
        ++retakes;
        support::log_warn("colorpicker", "unusable frame (", readout.error,
                          "); retaking photo (attempt ", retakes, ")");
        const wei::WorkflowRunStats retake = run_workflow(core::wf_retake());
        frame_id = retake.results.back().data.at("frame_id").as_int();
        readout = read_frame(frame_id);
    }
    if (!readout.ok) {
        throw wei::WorkflowError("vision pipeline failed after " + std::to_string(retakes) +
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
        obs.score = core::evaluate_objective(config.objective, obs.measured, config.target);
        result.observations.push_back(std::move(obs));
    }
    return result;
}

void TwinLoop::publish(support::json::Value document) {
    const Tracer::Scope span(tracer_, "data.publish");
    runtime_.flow().publish(std::move(document));
    ++counters_.publishes;
}

void TwinLoop::publish_experiment_header() {
    const core::ColorPickerConfig& config = runtime_.config();
    data::ExperimentRecord record;
    record.experiment_id = config.experiment_id;
    record.date = config.date;
    record.solver = solver_->name();
    record.target = config.target;
    record.batch_size = config.batch_size;
    record.total_samples = samples_done_;
    record.run_count = outcome_.batches_run;
    publish(record.to_json());
}

void TwinLoop::publish_run(int run_number, std::span<const solver::Observation> observations,
                           const std::vector<int>& wells, support::TimePoint started,
                           std::int64_t frame_id) {
    const core::ColorPickerConfig& config = runtime_.config();
    data::RunRecord record;
    record.experiment_id = config.experiment_id;
    record.run_number = run_number;
    record.started = started;
    record.ended = runtime_.transport().now();
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
    publish(record.to_json());
}

TwinRun TwinLoop::run() {
    const Tracer::Scope loop_span(tracer_, "loop");
    const core::ColorPickerConfig& config = runtime_.config();
    outcome_.experiment_id = config.experiment_id;
    outcome_.best_score = 1e300;

    double residual_sum = 0.0;
    std::size_t residual_count = 0;

    while (samples_done_ < config.total_samples) {
        if (config.stop_threshold > 0.0 && outcome_.best_score <= config.stop_threshold) {
            outcome_.reached_threshold = true;
            break;
        }
        const int batch = std::min(config.batch_size, config.total_samples - samples_done_);
        ensure_plate_with_room(batch);

        wei::Plate& plate = runtime_.plates().get(*current_plate_);
        std::vector<int> wells;
        int well_cursor = plate.next_free_well().value_or(0);
        for (int i = 0; i < batch; ++i) {
            while (plate.is_filled(well_cursor)) ++well_cursor;
            wells.push_back(well_cursor);
            ++well_cursor;
        }

        const support::TimePoint batch_start = runtime_.transport().now();
        std::vector<std::vector<double>> proposals;
        {
            const Tracer::Scope span(tracer_, "solver.ask");
            proposals = solver_->ask(static_cast<std::size_t>(batch));
        }
        ++counters_.asks;
        BatchReadout readout = mix_and_measure(proposals, wells);

        for (const solver::Observation& obs : readout.observations) {
            ++samples_done_;
            if (obs.score < outcome_.best_score) {
                outcome_.best_score = obs.score;
                outcome_.best_ratios = obs.ratios;
                outcome_.best_color = obs.measured;
            }
            core::SamplePoint point;
            point.index = samples_done_;
            point.elapsed_minutes = runtime_.transport().now().to_minutes();
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

        if (config.publish) {
            if (outcome_.batches_run == 1) publish_experiment_header();
            publish_run(outcome_.batches_run, readout.observations, wells, batch_start,
                        readout.frame_id);
        }
        {
            const Tracer::Scope span(tracer_, "solver.tell");
            solver_->tell(readout.observations);
        }
        ++counters_.tells;
        support::log_info("colorpicker", "batch ", outcome_.batches_run, " done: best=",
                          outcome_.best_score, " after ", samples_done_, " samples");
    }

    {
        const Tracer::Scope span(tracer_, "metrics.compute");
        outcome_.metrics = metrics::compute_metrics(
            log_, samples_done_, runtime_.flow().completion_times(), config.metrics);
    }
    outcome_.mean_grid_residual_px =
        residual_count > 0 ? residual_sum / static_cast<double>(residual_count) : 0.0;

    if (current_plate_.has_value()) {
        (void)run_workflow(core::wf_trashplate());
        current_plate_.reset();
    }
    if (config.publish && outcome_.batches_run > 0) publish_experiment_header();
    {
        const Tracer::Scope span(tracer_, "des.drain");
        runtime_.sim().run_all();
    }

    counters_.frames = runtime_.camera().frames_captured();
    counters_.retakes = outcome_.frame_retakes;
    counters_.commands = static_cast<std::int64_t>(engine_.commands_issued());
    if (reader_.has_value()) {
        counters_.roi_hits = static_cast<std::int64_t>(reader_->roi_hits());
        counters_.full_scans = static_cast<std::int64_t>(reader_->full_scans());
    }
    return {outcome_, counters_};
}

}  // namespace

TwinRun run_twin(const core::ColorPickerConfig& config, Tracer& tracer) {
    std::optional<core::WorkcellRuntime> runtime;
    std::optional<TwinLoop> loop;
    {
        const Tracer::Scope span(tracer, "core.setup");
        runtime.emplace(config);
        loop.emplace(*runtime, tracer);
    }
    return loop->run();
}

}  // namespace perfbench
