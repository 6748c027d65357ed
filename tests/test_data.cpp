// Tests for the publication substrate: record schemas, the simulated
// Globus flow, the data portal (Figure 3 views), and run artifacts.
#include <gtest/gtest.h>

#include <filesystem>

#include "data/artifacts.hpp"
#include "data/flow.hpp"
#include "data/portal.hpp"
#include "data/record.hpp"
#include "des/simulation.hpp"
#include "support/common.hpp"

using namespace sdl::data;
using sdl::des::Simulation;
using sdl::support::Duration;
using sdl::support::TimePoint;
namespace json = sdl::support::json;

namespace {

SampleRecord make_sample(int index, double score, double best) {
    SampleRecord s;
    s.sample_index = index;
    s.well = index - 1;
    s.ratios = {0.25, 0.25, 0.25, 0.25};
    s.volumes_ul = {20, 20, 20, 20};
    s.measured = {118, 122, 119};
    s.score = score;
    s.best_score_so_far = best;
    s.measured_at = TimePoint::from_seconds(index * 230.0);
    return s;
}

RunRecord make_run(const std::string& experiment, int number, int n_samples) {
    RunRecord run;
    run.experiment_id = experiment;
    run.run_number = number;
    run.started = TimePoint::from_seconds((number - 1) * 3600.0);
    run.ended = TimePoint::from_seconds((number - 1) * 3600.0 + 2400.0);
    run.image_ref = "plate_frame_" + std::to_string(number) + ".ppm";
    run.best_score = 12.5;
    for (int i = 1; i <= n_samples; ++i) {
        run.samples.push_back(make_sample(i, 20.0 - i, 20.0 - i));
    }
    return run;
}

ExperimentRecord make_experiment(const std::string& id) {
    ExperimentRecord e;
    e.experiment_id = id;
    e.date = "2023-08-16";
    e.solver = "genetic";
    e.target = {120, 120, 120};
    e.batch_size = 15;
    e.total_samples = 180;
    e.run_count = 12;
    return e;
}

}  // namespace

// ---------------------------------------------------------------- records

TEST(Records, SampleJsonRoundTrip) {
    const SampleRecord original = make_sample(7, 11.5, 9.25);
    const SampleRecord back = SampleRecord::from_json(original.to_json());
    EXPECT_EQ(back.sample_index, 7);
    EXPECT_EQ(back.well, 6);
    EXPECT_EQ(back.ratios, original.ratios);
    EXPECT_EQ(back.measured, original.measured);
    EXPECT_DOUBLE_EQ(back.score, 11.5);
    EXPECT_DOUBLE_EQ(back.measured_at.to_seconds(), original.measured_at.to_seconds());
}

TEST(Records, RunJsonRoundTrip) {
    const RunRecord original = make_run("exp_a", 12, 15);
    const RunRecord back = RunRecord::from_json(original.to_json());
    EXPECT_EQ(back.run_number, 12);
    EXPECT_EQ(back.samples.size(), 15u);
    EXPECT_EQ(back.image_ref, "plate_frame_12.ppm");
    EXPECT_DOUBLE_EQ(back.best_score, 12.5);
}

TEST(Records, ExperimentJsonRoundTrip) {
    const ExperimentRecord original = make_experiment("exp_a");
    const ExperimentRecord back = ExperimentRecord::from_json(original.to_json());
    EXPECT_EQ(back.experiment_id, "exp_a");
    EXPECT_EQ(back.batch_size, 15);
    EXPECT_EQ(back.target, (sdl::color::Rgb8{120, 120, 120}));
}

// ----------------------------------------------------------------- portal

TEST(Portal, IngestAndQuery) {
    DataPortal portal;
    portal.ingest(make_experiment("exp_a").to_json());
    for (int run = 1; run <= 12; ++run) {
        portal.ingest(make_run("exp_a", run, 15).to_json());
    }
    EXPECT_EQ(portal.experiment_count(), 1u);
    EXPECT_EQ(portal.run_count(), 12u);
    EXPECT_TRUE(portal.find_experiment("exp_a").has_value());
    EXPECT_FALSE(portal.find_experiment("nope").has_value());
    EXPECT_EQ(portal.runs_of("exp_a").size(), 12u);
    ASSERT_TRUE(portal.find_run("exp_a", 12).has_value());
    EXPECT_EQ(portal.find_run("exp_a", 12)->samples.size(), 15u);
    EXPECT_FALSE(portal.find_run("exp_a", 13).has_value());
}

TEST(Portal, IngestIsIdempotentByIdentity) {
    DataPortal portal;
    portal.ingest(make_run("exp_a", 1, 5).to_json());
    portal.ingest(make_run("exp_a", 1, 15).to_json());  // re-publish, more samples
    EXPECT_EQ(portal.run_count(), 1u);
    EXPECT_EQ(portal.find_run("exp_a", 1)->samples.size(), 15u);
}

TEST(Portal, RejectsUnknownDocumentType) {
    DataPortal portal;
    json::Value doc = json::Value::object();
    doc.set("type", "mystery");
    EXPECT_THROW(portal.ingest(doc), sdl::support::Error);
}

TEST(Portal, SummaryViewMatchesFigure3Shape) {
    DataPortal portal;
    portal.ingest(make_experiment("color_picker_2023-08-16").to_json());
    for (int run = 1; run <= 12; ++run) {
        portal.ingest(make_run("color_picker_2023-08-16", run, 15).to_json());
    }
    const std::string view = portal.render_experiment_summary("color_picker_2023-08-16");
    // The headline sentence of Figure 3 (left).
    EXPECT_NE(view.find("12 runs each with ~15 samples, for a total of 180 experiments"),
              std::string::npos);
    EXPECT_NE(view.find("#12"), std::string::npos);
    EXPECT_NE(view.find("rgb(120,120,120)"), std::string::npos);
}

TEST(Portal, DetailViewListsSamples) {
    DataPortal portal;
    portal.ingest(make_run("exp_a", 12, 15).to_json());
    const std::string view = portal.render_run_detail("exp_a", 12);
    EXPECT_NE(view.find("Detailed data from run #12"), std::string::npos);
    EXPECT_NE(view.find("plate_frame_12.ppm"), std::string::npos);
    // All 15 samples listed.
    EXPECT_NE(view.find("15"), std::string::npos);
    EXPECT_EQ(portal.render_run_detail("exp_a", 99).find("not found") == std::string::npos,
              false);
}

// ------------------------------------------------------------------- flow

TEST(Flow, PublishesAsynchronouslyThroughStages) {
    Simulation sim;
    DataPortal portal;
    GlobusFlowSim flow(sim, portal, 0x910B05);

    flow.publish(make_run("exp_a", 1, 2).to_json());
    EXPECT_EQ(flow.in_flight(), 1u);
    EXPECT_EQ(portal.run_count(), 0u);  // not yet indexed

    sim.run_all();
    EXPECT_EQ(flow.in_flight(), 0u);
    EXPECT_EQ(flow.completed(), 1u);
    EXPECT_EQ(portal.run_count(), 1u);
    ASSERT_EQ(flow.completion_times().size(), 1u);
    // Three stages: at least the sum of minimum jittered latencies.
    EXPECT_GT(flow.completion_times()[0].to_seconds(), 4.0);
}

TEST(Flow, ManyPublicationsTrackUploadInterval) {
    Simulation sim;
    DataPortal portal;
    GlobusFlowSim flow(sim, portal, 0x910B05);

    // Publish every 230 s of simulated time, as the B=1 loop does.
    for (int i = 0; i < 10; ++i) {
        flow.publish(make_run("exp_a", i + 1, 1).to_json());
        sim.run_until_time(TimePoint::from_seconds((i + 1) * 230.0));
    }
    sim.run_all();
    EXPECT_EQ(flow.completed(), 10u);
    const std::vector<TimePoint>& times = flow.completion_times();
    ASSERT_EQ(times.size(), 10u);
    // Mean spacing between consecutive completions.
    EXPECT_NEAR((times.back() - times.front()).to_seconds() / 9.0, 230.0, 5.0);
    EXPECT_EQ(portal.run_count(), 10u);
}

TEST(Flow, DeterministicForEqualSeeds) {
    auto run_once = [] {
        Simulation sim;
        DataPortal portal;
        GlobusFlowSim flow(sim, portal, 0x910B05);
        flow.publish(make_run("exp_a", 1, 1).to_json());
        sim.run_all();
        return flow.completion_times()[0].to_seconds();
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

// -------------------------------------------------------------- artifacts

TEST(Artifacts, WritesOneFilePerWorkflowRun) {
    sdl::wei::EventLog log;
    sdl::wei::StepRecord step;
    step.workflow = "cp_wf_mixcolor";
    step.step = "mix";
    step.module = "ot2";
    step.action = "run_protocol";
    step.start = TimePoint::from_seconds(0);
    step.end = TimePoint::from_seconds(145);
    log.record_step(step);
    log.record_workflow({"cp_wf_mixcolor", TimePoint::from_seconds(0),
                         TimePoint::from_seconds(200), true});
    log.record_workflow({"cp_wf_trashplate", TimePoint::from_seconds(200),
                         TimePoint::from_seconds(280), true});

    const std::string dir = ::testing::TempDir() + "/sdl_artifacts";
    std::filesystem::remove_all(dir);
    const std::size_t written = write_run_artifacts(log, dir);
    EXPECT_EQ(written, 2u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/0_cp_wf_mixcolor.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/1_cp_wf_trashplate.json"));
}
