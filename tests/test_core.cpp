// End-to-end tests of the color-picker application: the full closed loop
// (solver -> robots -> camera -> vision -> publish -> solver) on the
// simulated workcell, including the paper-calibration checks.
#include <gtest/gtest.h>

#include "core/colorpicker.hpp"
#include "core/presets.hpp"
#include "core/workflows.hpp"
#include "support/common.hpp"

using namespace sdl;
using namespace sdl::core;

TEST(Workflows, MatchFigure2Structure) {
    EXPECT_EQ(wf_newplate().steps().size(), 3u);
    EXPECT_EQ(wf_mixcolor().steps().size(), 4u);
    EXPECT_EQ(wf_trashplate().steps().size(), 2u);
    EXPECT_EQ(wf_replenish().steps().size(), 1u);
    EXPECT_EQ(wf_mixcolor().steps()[1].name, kMixStepName);
    EXPECT_EQ(all_workflows().size(), 4u);
    // Module sequence of the mix workflow: pf400, ot2, pf400, camera.
    EXPECT_EQ(wf_mixcolor().steps()[0].module, "pf400");
    EXPECT_EQ(wf_mixcolor().steps()[1].module, "ot2");
    EXPECT_EQ(wf_mixcolor().steps()[2].module, "pf400");
    EXPECT_EQ(wf_mixcolor().steps()[3].module, "camera");
}

TEST(Objective, MetricsAgreeOnIdentityAndOrder) {
    const color::Rgb8 target{120, 120, 120};
    const color::Rgb8 close{122, 118, 121};
    const color::Rgb8 far{200, 60, 30};
    for (const Objective obj :
         {Objective::RgbEuclidean, Objective::DeltaE76, Objective::DeltaE2000}) {
        EXPECT_NEAR(evaluate_objective(obj, target, target), 0.0, 1e-9);
        EXPECT_LT(evaluate_objective(obj, close, target),
                  evaluate_objective(obj, far, target));
    }
}

TEST(Runtime, DrivesAtMostOneExperiment) {
    WorkcellRuntime runtime(preset_quickstart(5));
    runtime.claim();
    // A second driver on the same (cumulative-state) workcell must fail
    // loudly instead of silently corrupting metrics.
    EXPECT_THROW(runtime.claim(), support::LogicError);
}

TEST(App, QuickstartRunsToCompletion) {
    ColorPickerApp app(preset_quickstart(7));
    const ExperimentOutcome outcome = app.run();

    EXPECT_EQ(outcome.samples.size(), 24u);
    EXPECT_EQ(outcome.batches_run, 3);
    EXPECT_EQ(outcome.plates_used, 1);
    EXPECT_EQ(outcome.metrics.total_colors, 24);
    EXPECT_GT(outcome.best_score, 0.0);
    EXPECT_LT(outcome.best_score, 40.0);

    // best_so_far is monotone non-increasing; elapsed strictly increasing
    // across batches.
    for (std::size_t i = 1; i < outcome.samples.size(); ++i) {
        EXPECT_LE(outcome.samples[i].best_so_far, outcome.samples[i - 1].best_so_far);
        EXPECT_GE(outcome.samples[i].elapsed_minutes, outcome.samples[i - 1].elapsed_minutes);
    }

    // Portal: one experiment header + one record per batch.
    EXPECT_EQ(app.portal().experiment_count(), 1u);
    EXPECT_EQ(app.portal().run_count(), 3u);
    const auto run2 = app.portal().find_run(outcome.experiment_id, 2);
    ASSERT_TRUE(run2.has_value());
    EXPECT_EQ(run2->samples.size(), 8u);

    // Event log captured the workflows (newplate + 3 mixcolor + trash).
    EXPECT_EQ(app.event_log().workflows().size(), 5u);
}

TEST(App, DeterministicForEqualSeeds) {
    ColorPickerApp app_a(preset_quickstart(42));
    ColorPickerApp app_b(preset_quickstart(42));
    const ExperimentOutcome a = app_a.run();
    const ExperimentOutcome b = app_b.run();
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].measured, b.samples[i].measured) << "sample " << i;
        EXPECT_DOUBLE_EQ(a.samples[i].score, b.samples[i].score);
        EXPECT_DOUBLE_EQ(a.samples[i].elapsed_minutes, b.samples[i].elapsed_minutes);
    }
    EXPECT_DOUBLE_EQ(a.best_score, b.best_score);

    ColorPickerApp app_c(preset_quickstart(43));
    const ExperimentOutcome c = app_c.run();
    bool any_different = false;
    for (std::size_t i = 0; i < std::min(a.samples.size(), c.samples.size()); ++i) {
        if (!(a.samples[i].measured == c.samples[i].measured)) any_different = true;
    }
    EXPECT_TRUE(any_different);
}

TEST(App, EarlyStopOnThreshold) {
    ColorPickerConfig config = preset_quickstart(11);
    config.total_samples = 64;
    config.stop_threshold = 60.0;  // trivially reachable
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_TRUE(outcome.reached_threshold);
    EXPECT_LT(outcome.samples.size(), 64u);
    EXPECT_LE(outcome.best_score, 60.0);
}

TEST(App, PlateSwapWhenFull) {
    ColorPickerConfig config = preset_quickstart(13);
    config.plate_rows = 2;
    config.plate_cols = 4;  // 8-well plates
    config.batch_size = 4;
    config.total_samples = 24;  // needs 3 plates
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_EQ(outcome.plates_used, 3);
    // trashplate ran twice mid-run plus once at teardown.
    int trash_runs = 0;
    for (const auto& wf : app.event_log().workflows()) {
        if (wf.name == "cp_wf_trashplate") ++trash_runs;
    }
    EXPECT_EQ(trash_runs, 3);
    EXPECT_EQ(outcome.samples.size(), 24u);
}

TEST(App, ReplenishesWhenReservoirsRunLow) {
    ColorPickerConfig config = preset_quickstart(17);
    config.ot2.reservoir_capacity = support::Volume::microliters(700.0);
    config.total_samples = 32;
    config.batch_size = 8;
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_GE(outcome.replenishes, 1);
    EXPECT_EQ(outcome.samples.size(), 32u);
    int replenish_runs = 0;
    for (const auto& wf : app.event_log().workflows()) {
        if (wf.name == "cp_wf_replenish") ++replenish_runs;
    }
    EXPECT_EQ(replenish_runs, outcome.replenishes);
}

TEST(App, SurvivesCommandRejections) {
    ColorPickerConfig config = preset_quickstart(19);
    config.faults.command_rejection_prob = 0.25;
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_EQ(outcome.samples.size(), 24u);
    // Rejections were logged but every command eventually succeeded.
    int rejected = 0;
    for (const auto& step : app.event_log().steps()) {
        if (step.status == wei::ActionStatus::Rejected) ++rejected;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(outcome.metrics.interventions, 0);  // retries were enough
}

TEST(App, VisionDiagnosticsAreHealthy) {
    ColorPickerApp app(preset_quickstart(23));
    const ExperimentOutcome outcome = app.run();
    // Grid alignment stays subpixel-ish on the synthetic frames.
    EXPECT_LT(outcome.mean_grid_residual_px, 3.0);
    // Early batches photograph mostly-empty plates: some wells must have
    // been rescued by the grid fit rather than seen by Hough.
    EXPECT_GT(outcome.wells_rescued_total, 0u);
}

TEST(App, BayesianSolverRunsInTheLoop) {
    ColorPickerConfig config = preset_quickstart(29);
    config.solver = "bayesian";
    config.total_samples = 16;
    config.batch_size = 8;
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_EQ(outcome.samples.size(), 16u);
    EXPECT_LT(outcome.best_score, 60.0);
}

TEST(App, DeltaE2000ObjectiveRuns) {
    ColorPickerConfig config = preset_quickstart(31);
    config.objective = Objective::DeltaE2000;
    config.total_samples = 16;
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_EQ(outcome.samples.size(), 16u);
    EXPECT_LT(outcome.best_score, 30.0);  // dE2000 scale is tighter than RGB
}

TEST(App, RetakesGlitchedFrames) {
    // At glitch_prob 0.35 a three-frame run sees no glitch 27% of the
    // time, so no single seed's camera stream may decide this test: scan
    // seeds until a run retakes, and check the retake bookkeeping on every
    // run that finishes.
    bool retook = false;
    for (std::uint64_t seed = 41; seed < 41 + 16 && !retook; ++seed) {
        ColorPickerConfig config = preset_quickstart(seed);
        config.camera.glitch_prob = 0.35;
        ColorPickerApp app(config);
        ExperimentOutcome outcome;
        try {
            outcome = app.run();
        } catch (const wei::WorkflowError&) {
            continue;  // four unusable frames in a row: the abort path
        }
        EXPECT_EQ(outcome.samples.size(), 24u) << "seed " << seed;
        // Every retake is a cp_wf_retake workflow in the event log.
        int retake_runs = 0;
        for (const auto& wf : app.event_log().workflows()) {
            if (wf.name == "cp_wf_retake") ++retake_runs;
        }
        EXPECT_EQ(retake_runs, outcome.frame_retakes) << "seed " << seed;
        // One frame per measured batch, plus one per retake.
        EXPECT_EQ(app.camera().frames_captured(),
                  static_cast<std::int64_t>(outcome.batches_run + outcome.frame_retakes))
            << "seed " << seed;
        retook = outcome.frame_retakes > 0;
    }
    EXPECT_TRUE(retook);
}

TEST(App, PersistentGlitchAbortsAfterMaxRetakes) {
    ColorPickerConfig config = preset_quickstart(43);
    config.camera.glitch_prob = 1.0;  // every frame unusable
    ColorPickerApp app(config);
    EXPECT_THROW((void)app.run(), wei::WorkflowError);
}

TEST(App, RunIsSingleShot) {
    ColorPickerApp app(preset_quickstart(37));
    (void)app.run();
    EXPECT_THROW((void)app.run(), support::LogicError);
}

TEST(App, AbortsWhenPlateSupplyExhausted) {
    // "resources exhausted" is one of the paper's termination criteria;
    // an empty sciclops tower is a hard device failure surfaced as a
    // WorkflowError.
    ColorPickerConfig config = preset_quickstart(47);
    config.plate_rows = 1;
    config.plate_cols = 4;  // 4-well plates -> needs 6 plates for 24 samples
    config.batch_size = 4;
    config.sciclops.towers = 1;
    config.sciclops.plates_per_tower = 2;  // only 2 available
    ColorPickerApp app(config);
    EXPECT_THROW((void)app.run(), wei::WorkflowError);
}

TEST(App, RejectsInvalidConfig) {
    ColorPickerConfig config = preset_quickstart(1);
    config.batch_size = 0;
    EXPECT_THROW(ColorPickerApp{config}, support::LogicError);
    config = preset_quickstart(1);
    config.batch_size = 97;  // exceeds 96-well plate
    EXPECT_THROW(ColorPickerApp{config}, support::LogicError);
}

TEST(Figure4Shape, TotalTimeDecreasesWithBatchSize) {
    // The qualitative core of Figure 4, checked at a fast scale: for a
    // fixed sample budget, larger batches finish sooner (fewer protocol
    // overheads and pf400 round trips).
    double previous_minutes = 1e18;
    for (const int batch : {2, 4, 12}) {
        ColorPickerConfig config = preset_quickstart(3);
        config.total_samples = 24;
        config.batch_size = batch;
        config.experiment_id = "shape_B" + std::to_string(batch);
        ColorPickerApp app(config);
        const ExperimentOutcome outcome = app.run();
        EXPECT_LT(outcome.metrics.total_time.to_minutes(), previous_minutes)
            << "B=" << batch;
        previous_minutes = outcome.metrics.total_time.to_minutes();
    }
}

// ------------------------------------------------ paper calibration (B=1)

TEST(PaperCalibration, CommandCountMatchesTable1Exactly) {
    // Single-plate decomposition: 3 setup commands (sciclops, pf400,
    // barty) + 128 iterations x 3 robotic commands (pf400, ot2, pf400) =
    // 387 = the paper's CCWH. The camera is a sensor; the terminal
    // trashplate runs after the experiment's last measurement.
    ColorPickerApp app(preset_table1(1));
    const ExperimentOutcome outcome = app.run();
    EXPECT_EQ(outcome.metrics.commands_completed, 387u);
    EXPECT_EQ(outcome.metrics.total_colors, 128);
    EXPECT_EQ(outcome.plates_used, 1);

    // Timing calibration: within a percent of Table 1.
    EXPECT_NEAR(outcome.metrics.total_time.to_minutes(), 492.0, 492.0 * 0.02);
    EXPECT_NEAR(outcome.metrics.synthesis_time.to_minutes(), 310.0, 310.0 * 0.01);
    EXPECT_NEAR(outcome.metrics.transfer_time.to_minutes(), 182.0, 182.0 * 0.02);
    EXPECT_NEAR(outcome.metrics.time_per_color.to_minutes(), 3.84, 0.1);
    // "Data uploads occurred on average every 3 minutes and 48 seconds."
    EXPECT_NEAR(outcome.metrics.mean_upload_interval.to_seconds(), 230.0, 6.0);
    // Figure 4's B=1 end state: best score near or below ~10-12.
    EXPECT_LT(outcome.best_score, 15.0);
}

TEST(PaperCalibration, NinetySixWellVariantIsClose) {
    ColorPickerApp app(preset_table1_96well(1));
    const ExperimentOutcome outcome = app.run();
    // Two plates: +1 newplate (3 commands) + 1 mid-run trashplate (2).
    EXPECT_EQ(outcome.metrics.commands_completed, 392u);
    EXPECT_EQ(outcome.plates_used, 2);
    // Within ~2% of the paper's command count either way.
    EXPECT_NEAR(static_cast<double>(outcome.metrics.commands_completed), 387.0, 8.0);
}
