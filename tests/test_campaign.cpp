// Tests for the campaign layer: grid expansion, deterministic per-cell
// seeding (same spec twice -> identical results), aggregation math, and
// the campaign YAML round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "campaign/campaign.hpp"
#include "campaign/campaign_io.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "support/common.hpp"
#include "support/log.hpp"

using namespace sdl;
using namespace sdl::campaign;

namespace {

CampaignSpec tiny_spec() {
    CampaignSpec spec;
    spec.name = "tiny";
    spec.base.total_samples = 6;
    spec.base.batch_size = 3;
    spec.axes.solvers = {"genetic", "random"};
    spec.base_seed = 11;
    spec.seed_mode = SeedMode::PerCell;
    return spec;
}

}  // namespace

// ------------------------------------------------------------- expansion

TEST(Campaign, ExpandsFullCartesianGridInFixedOrder) {
    CampaignSpec spec;
    spec.axes.solvers = {"genetic", "random"};
    spec.axes.batch_sizes = {1, 4};
    spec.axes.objectives = {core::Objective::RgbEuclidean, core::Objective::DeltaE2000};
    spec.axes.targets = {{120, 120, 120}, {10, 20, 30}};
    spec.replicates = 3;

    EXPECT_EQ(cell_count(spec), 2u * 2u * 2u * 2u * 3u);
    const auto cells = expand_grid(spec);
    ASSERT_EQ(cells.size(), cell_count(spec));
    // Replicates innermost, solvers outermost.
    EXPECT_EQ(cells[0].solver, "genetic");
    EXPECT_EQ(cells[0].replicate, 0);
    EXPECT_EQ(cells[1].replicate, 1);
    EXPECT_EQ(cells[2].replicate, 2);
    EXPECT_EQ(cells[3].target, (color::Rgb8{10, 20, 30}));
    EXPECT_EQ(cells.back().solver, "random");
    EXPECT_EQ(cells.back().batch_size, 4);
    EXPECT_EQ(cells.back().replicate, 2);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].index, i);
        // Every cell resolves its own config.
        EXPECT_EQ(cells[i].config.solver, cells[i].solver);
        EXPECT_EQ(cells[i].config.batch_size, cells[i].batch_size);
        EXPECT_EQ(cells[i].config.target, cells[i].target);
        EXPECT_FALSE(cells[i].config.experiment_id.empty());
    }
    // Experiment ids are unique.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j) {
            EXPECT_NE(cells[i].config.experiment_id, cells[j].config.experiment_id);
        }
    }
}

TEST(Campaign, WorkcellAxisIsOutermostAndResolvesCellHardware) {
    CampaignSpec spec = tiny_spec();
    spec.axes.workcells = {"baseline", "minimal"};
    const auto cells = expand_grid(spec);
    ASSERT_EQ(cells.size(), 4u);  // 2 workcells x 2 solvers
    EXPECT_EQ(cells[0].workcell, "baseline");
    EXPECT_EQ(cells[1].workcell, "baseline");
    EXPECT_EQ(cells[2].workcell, "minimal");
    EXPECT_EQ(cells[3].workcell, "minimal");
    // The scenario resolved into each cell's config and experiment id.
    EXPECT_TRUE(cells[0].config.workcell.has_sciclops);
    EXPECT_FALSE(cells[2].config.workcell.has_sciclops);
    EXPECT_FALSE(cells[2].config.workcell.has_pf400);
    EXPECT_FALSE(cells[2].config.workcell.has_barty);
    EXPECT_NE(cells[2].config.experiment_id.find("minimal"), std::string::npos);
}

TEST(Campaign, SingleBaseScenarioAxisKeepsBaseHardware) {
    // An axis of just the base scenario is equivalent to not sweeping:
    // in-code customizations of the base survive expansion.
    CampaignSpec spec = tiny_spec();
    spec.base.faults.command_rejection_prob = 0.25;
    spec.axes.workcells = {"baseline"};
    const auto cells = expand_grid(spec);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_DOUBLE_EQ(cells[0].config.faults.command_rejection_prob, 0.25);
    EXPECT_EQ(cells[0].config.experiment_id.find("baseline"), std::string::npos);
}

TEST(Campaign, EmptyAxesFallBackToBaseConfig) {
    CampaignSpec spec;
    spec.base.solver = "anneal";
    spec.base.batch_size = 7;
    spec.base.objective = core::Objective::DeltaE76;
    spec.base.target = {1, 2, 3};
    const auto cells = expand_grid(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].solver, "anneal");
    EXPECT_EQ(cells[0].batch_size, 7);
    EXPECT_EQ(cells[0].objective, core::Objective::DeltaE76);
    EXPECT_EQ(cells[0].target, (color::Rgb8{1, 2, 3}));
}

TEST(Campaign, RejectsNonPositiveReplicates) {
    CampaignSpec spec;
    spec.replicates = 0;
    EXPECT_THROW((void)expand_grid(spec), support::ConfigError);
}

// --------------------------------------------------------------- seeding

TEST(Campaign, PerCellSeedsAreDistinct) {
    CampaignSpec spec = tiny_spec();
    spec.replicates = 2;
    const auto cells = expand_grid(spec);
    ASSERT_EQ(cells.size(), 4u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].config.seed, spec.base_seed + i);
    }
}

TEST(Campaign, PerReplicateSeedsArePairedAcrossTheGrid) {
    CampaignSpec spec = tiny_spec();
    spec.seed_mode = SeedMode::PerReplicate;
    spec.replicates = 2;
    const auto cells = expand_grid(spec);
    ASSERT_EQ(cells.size(), 4u);
    // genetic r0, genetic r1, random r0, random r1.
    EXPECT_EQ(cells[0].config.seed, spec.base_seed);
    EXPECT_EQ(cells[1].config.seed, spec.base_seed + 1);
    EXPECT_EQ(cells[2].config.seed, spec.base_seed);
    EXPECT_EQ(cells[3].config.seed, spec.base_seed + 1);
}

TEST(Campaign, SameSpecTwiceGivesByteIdenticalResults) {
    support::set_log_level(support::LogLevel::Error);
    const CampaignSpec spec = tiny_spec();
    CampaignRunnerOptions options;
    options.log_progress = false;
    const CampaignRunner runner(options);
    const auto first = runner.run(spec);
    const auto second = runner.run(spec);
    ASSERT_EQ(first.size(), second.size());
    // The deterministic serialization (modeled time only, no wall time)
    // must match byte for byte.
    EXPECT_EQ(campaign_results_to_json(spec, first).pretty(),
              campaign_results_to_json(spec, second).pretty());
    EXPECT_EQ(campaign_results_to_csv(first), campaign_results_to_csv(second));
}

TEST(Campaign, ThreadCountInvariantByteIdenticalResults) {
    // The reproducibility contract's thread-count half: the same spec
    // must serialize byte-identically whether cells run one at a time
    // or fan out across every core. The bayesian cell routes the whole
    // GP/linalg stack through the worker pool.
    support::set_log_level(support::LogLevel::Error);
    CampaignSpec spec = tiny_spec();
    spec.axes.solvers = {"bayesian", "random"};
    std::string reference;
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, hw}) {
        CampaignRunnerOptions options;
        options.log_progress = false;
        options.max_workers = workers;
        const CampaignRunner runner(options);
        const auto results = runner.run(spec);
        const std::string doc = campaign_results_to_json(spec, results).pretty();
        if (reference.empty()) {
            reference = doc;
        } else {
            EXPECT_EQ(doc, reference) << "campaign.json diverged at max_workers="
                                      << workers;
        }
    }
}

// ----------------------------------------------------------- aggregation

TEST(Campaign, AggregatesGroupReplicatesAndComputeStats) {
    // Hand-built results: one grid point with two replicates, another
    // with one.
    CellResult a, b, c;
    a.cell.solver = b.cell.solver = "genetic";
    a.cell.batch_size = b.cell.batch_size = 4;
    a.cell.replicate = 0;
    b.cell.replicate = 1;
    a.outcome.best_score = 10.0;
    b.outcome.best_score = 14.0;
    a.outcome.metrics.total_time = support::Duration::minutes(30);
    b.outcome.metrics.total_time = support::Duration::minutes(50);
    c.cell.solver = "random";
    c.cell.batch_size = 4;
    c.outcome.best_score = 99.0;
    c.outcome.metrics.total_time = support::Duration::minutes(10);

    const auto groups = aggregate_results(std::vector<CellResult>{a, b, c});
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].solver, "genetic");
    EXPECT_EQ(groups[0].replicates, 2u);
    EXPECT_DOUBLE_EQ(groups[0].best_score.mean(), 12.0);
    EXPECT_DOUBLE_EQ(groups[0].best_score.min(), 10.0);
    EXPECT_DOUBLE_EQ(groups[0].best_score.max(), 14.0);
    // Sample stddev of {10, 14} = sqrt(8).
    EXPECT_NEAR(groups[0].best_score.stddev(), 2.8284271247, 1e-9);
    EXPECT_DOUBLE_EQ(groups[0].total_minutes.mean(), 40.0);
    EXPECT_EQ(groups[1].solver, "random");
    EXPECT_EQ(groups[1].replicates, 1u);
    EXPECT_DOUBLE_EQ(groups[1].best_score.mean(), 99.0);
}

TEST(Campaign, ResultJsonCarriesTheSharedSchema) {
    support::set_log_level(support::LogLevel::Error);
    CampaignSpec spec = tiny_spec();
    spec.axes.solvers = {"random"};
    CampaignRunnerOptions options;
    options.log_progress = false;
    const auto results = CampaignRunner(options).run(spec);
    ASSERT_EQ(results.size(), 1u);

    const auto cell_doc = experiment_result_to_json(results[0].cell.config,
                                                    results[0].outcome);
    EXPECT_EQ(cell_doc.at("schema").as_string(), "sdlbench.experiment_result.v2");
    EXPECT_EQ(cell_doc.at("workcell").as_string(), "baseline");
    EXPECT_EQ(cell_doc.at("samples").size(), 6u);
    EXPECT_TRUE(cell_doc.at("metrics").contains("commands_completed"));

    const auto doc = campaign_results_to_json(spec, results);
    EXPECT_EQ(doc.at("schema").as_string(), "sdlbench.campaign_result.v2");
    EXPECT_EQ(doc.at("cells").size(), 1u);
    EXPECT_EQ(doc.at("cells").as_array()[0].at("cell").at("workcell").as_string(),
              "baseline");
    EXPECT_EQ(doc.at("cells").as_array()[0].at("result").at("schema").as_string(),
              "sdlbench.experiment_result.v2");
    EXPECT_EQ(doc.at("aggregates").size(), 1u);
}

// -------------------------------------------------------------- YAML I/O

TEST(CampaignIo, ParsesFullDocument) {
    const char* text = R"(campaign:
  name: demo
  replicates: 2
  base_seed: 42
  seed_mode: per_replicate
grid:
  workcells: [baseline, fast_lane]
  solvers: [genetic, bayesian]
  batch_sizes: [2, 8]
  objectives: [rgb, de2000]
  targets: [[120, 120, 120], [10, 20, 30]]
experiment:
  total_samples: 16
plate:
  rows: 4
  cols: 6
)";
    const CampaignSpec spec = campaign_from_yaml(text);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.replicates, 2);
    EXPECT_EQ(spec.base_seed, 42u);
    EXPECT_EQ(spec.seed_mode, SeedMode::PerReplicate);
    EXPECT_EQ(spec.axes.workcells,
              (std::vector<std::string>{"baseline", "fast_lane"}));
    EXPECT_EQ(spec.axes.solvers, (std::vector<std::string>{"genetic", "bayesian"}));
    EXPECT_EQ(spec.axes.batch_sizes, (std::vector<int>{2, 8}));
    ASSERT_EQ(spec.axes.objectives.size(), 2u);
    EXPECT_EQ(spec.axes.objectives[1], core::Objective::DeltaE2000);
    ASSERT_EQ(spec.axes.targets.size(), 2u);
    EXPECT_EQ(spec.axes.targets[1], (color::Rgb8{10, 20, 30}));
    EXPECT_EQ(spec.base.total_samples, 16);
    EXPECT_EQ(spec.base.plate_rows, 4);
    EXPECT_EQ(spec.base.plate_cols, 6);
    EXPECT_EQ(cell_count(spec), 2u * 2u * 2u * 2u * 2u * 2u);
}

TEST(CampaignIo, RequiresCampaignSectionAndRejectsUnknownKeys) {
    EXPECT_THROW((void)campaign_from_yaml("experiment:\n  seed: 1\n"),
                 support::ConfigError);
    EXPECT_THROW((void)campaign_from_yaml("campaign:\n  nmae: typo\n"),
                 support::ConfigError);
    EXPECT_THROW((void)campaign_from_yaml("campaign:\n  name: x\ngrid:\n  solver: [a]\n"),
                 support::ConfigError);
    EXPECT_THROW(
        (void)campaign_from_yaml("campaign:\n  seed_mode: round_robin\n"),
        support::ConfigError);
}

TEST(CampaignIo, RoundTripThroughYaml) {
    CampaignSpec original;
    original.name = "round_trip";
    original.replicates = 4;
    original.base_seed = 77;
    original.seed_mode = SeedMode::PerReplicate;
    original.axes.solvers = {"pattern", "oracle"};
    original.axes.batch_sizes = {3, 9};
    original.axes.objectives = {core::Objective::DeltaE76};
    original.axes.targets = {{200, 100, 50}};
    original.base.total_samples = 27;
    original.base.plate_rows = 2;
    original.base.plate_cols = 5;

    const CampaignSpec back = campaign_from_yaml(campaign_to_yaml(original));
    EXPECT_EQ(back.name, original.name);
    EXPECT_EQ(back.replicates, original.replicates);
    EXPECT_EQ(back.base_seed, original.base_seed);
    EXPECT_EQ(back.seed_mode, original.seed_mode);
    EXPECT_EQ(back.axes.solvers, original.axes.solvers);
    EXPECT_EQ(back.axes.batch_sizes, original.axes.batch_sizes);
    EXPECT_EQ(back.axes.objectives, original.axes.objectives);
    EXPECT_EQ(back.axes.targets, original.axes.targets);
    EXPECT_EQ(back.base.total_samples, original.base.total_samples);
    EXPECT_EQ(back.base.plate_rows, original.base.plate_rows);
    EXPECT_EQ(back.base.plate_cols, original.base.plate_cols);
    // The expansions agree cell by cell.
    const auto cells_a = expand_grid(original);
    const auto cells_b = expand_grid(back);
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (std::size_t i = 0; i < cells_a.size(); ++i) {
        EXPECT_EQ(cells_a[i].config.seed, cells_b[i].config.seed);
        EXPECT_EQ(cells_a[i].config.experiment_id, cells_b[i].config.experiment_id);
    }
}

TEST(CampaignIo, WorkcellAxisRoundTripsThroughYaml) {
    CampaignSpec original;
    original.name = "scenario_rt";
    original.axes.workcells = {"degraded", "fast_lane"};
    original.axes.solvers = {"random"};
    original.base.total_samples = 4;

    const std::string yaml = campaign_to_yaml(original);
    EXPECT_NE(yaml.find("workcells"), std::string::npos);
    const CampaignSpec back = campaign_from_yaml(yaml);
    EXPECT_EQ(back.axes.workcells, original.axes.workcells);
    const auto cells_a = expand_grid(original);
    const auto cells_b = expand_grid(back);
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (std::size_t i = 0; i < cells_a.size(); ++i) {
        EXPECT_EQ(cells_a[i].workcell, cells_b[i].workcell);
        EXPECT_EQ(cells_a[i].config.experiment_id, cells_b[i].config.experiment_id);
    }
}
