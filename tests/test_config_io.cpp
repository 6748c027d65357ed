// Tests for experiment-configuration YAML I/O (the CLI's input format).
#include <gtest/gtest.h>

#include <fstream>

#include "core/colorpicker.hpp"
#include "core/config_io.hpp"
#include "support/common.hpp"
#include "support/yaml.hpp"

using namespace sdl;
using namespace sdl::core;

TEST(ConfigIo, ParsesFullDocument) {
    const char* text = R"(experiment:
  target: [10, 200, 30]
  total_samples: 64
  batch_size: 4
  solver: bayesian
  objective: de2000
  seed: 99
  stop_threshold: 2.5
  id: my_exp
  date: 2024-01-01
plate:
  rows: 4
  cols: 6
well_volume_ul: 120.5
faults:
  command_rejection_prob: 0.05
retry:
  max_attempts: 3
  human_rescue: false
)";
    const ColorPickerConfig config = config_from_yaml(text);
    EXPECT_EQ(config.target, (color::Rgb8{10, 200, 30}));
    EXPECT_EQ(config.total_samples, 64);
    EXPECT_EQ(config.batch_size, 4);
    EXPECT_EQ(config.solver, "bayesian");
    EXPECT_EQ(config.objective, Objective::DeltaE2000);
    EXPECT_EQ(config.seed, 99u);
    EXPECT_DOUBLE_EQ(config.stop_threshold, 2.5);
    EXPECT_EQ(config.experiment_id, "my_exp");
    EXPECT_EQ(config.date, "2024-01-01");
    EXPECT_EQ(config.plate_rows, 4);
    EXPECT_EQ(config.plate_cols, 6);
    EXPECT_DOUBLE_EQ(config.well_volume.to_microliters(), 120.5);
    EXPECT_DOUBLE_EQ(config.faults.command_rejection_prob, 0.05);
    EXPECT_EQ(config.retry.max_attempts, 3);
    EXPECT_FALSE(config.retry.human_rescue);
}

TEST(ConfigIo, DefaultsApplyForOmittedSections) {
    const ColorPickerConfig config = config_from_yaml("experiment:\n  seed: 3\n");
    EXPECT_EQ(config.target, (color::Rgb8{120, 120, 120}));
    EXPECT_EQ(config.total_samples, 128);
    EXPECT_EQ(config.batch_size, 1);
    EXPECT_EQ(config.solver, "genetic");
    EXPECT_EQ(config.objective, Objective::RgbEuclidean);
    EXPECT_EQ(config.plate_rows, 8);
    EXPECT_EQ(config.plate_cols, 12);
}

TEST(ConfigIo, RejectsUnknownKeys) {
    EXPECT_THROW((void)config_from_yaml("experiment:\n  tartget: [1, 2, 3]\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("experimnt:\n  seed: 1\n"), support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("plate:\n  depth: 2\n"), support::ConfigError);
}

TEST(ConfigIo, RejectsBadValues) {
    EXPECT_THROW((void)config_from_yaml("experiment:\n  target: [300, 0, 0]\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("experiment:\n  target: [1, 2]\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("experiment:\n  objective: hsv\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("just a scalar"), support::Error);
}

TEST(ConfigIo, RoundTripThroughYaml) {
    ColorPickerConfig original;
    original.target = {30, 60, 90};
    original.total_samples = 42;
    original.batch_size = 6;
    original.solver = "pattern";
    original.objective = Objective::DeltaE76;
    original.seed = 77;
    original.experiment_id = "round_trip";
    original.plate_rows = 2;
    original.plate_cols = 3;
    original.faults.command_rejection_prob = 0.125;

    const ColorPickerConfig back = config_from_yaml(config_to_yaml(original));
    EXPECT_EQ(back.target, original.target);
    EXPECT_EQ(back.total_samples, 42);
    EXPECT_EQ(back.batch_size, 6);
    EXPECT_EQ(back.solver, "pattern");
    EXPECT_EQ(back.objective, Objective::DeltaE76);
    EXPECT_EQ(back.seed, 77u);
    EXPECT_EQ(back.experiment_id, "round_trip");
    EXPECT_EQ(back.plate_rows, 2);
    EXPECT_DOUBLE_EQ(back.faults.command_rejection_prob, 0.125);
}

TEST(ConfigIo, LinalgSelectionIsRejected) {
    // There is one linalg implementation: the YAML key is gone, so a spec
    // still carrying it fails as an unknown key ...
    try {
        (void)config_from_yaml("linalg_backend: strict\n");
        FAIL() << "linalg_backend must be rejected as an unknown key";
    } catch (const support::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown key 'linalg_backend'"),
                  std::string::npos);
    }
    // ... and a config built in code that still selects another value
    // fails in finalize_config instead of being ignored.
    ColorPickerConfig config;
    EXPECT_EQ(config.linalg_backend, "strict");
    EXPECT_EQ(config_to_yaml(config).find("linalg_backend"), std::string::npos);
    config.linalg_backend = "fast";
    EXPECT_THROW((void)finalize_config(std::move(config)), support::ConfigError);
}

TEST(ConfigIo, LoadsFromFile) {
    const std::string path = ::testing::TempDir() + "/sdl_experiment.yaml";
    {
        std::ofstream file(path);
        file << "experiment:\n  total_samples: 9\n  batch_size: 3\n";
    }
    const ColorPickerConfig config = config_from_file(path);
    EXPECT_EQ(config.total_samples, 9);
    EXPECT_EQ(config.batch_size, 3);
    EXPECT_THROW((void)config_from_file("/nonexistent/exp.yaml"), support::Error);
}

TEST(ConfigIo, DocRoundTripMatchesYamlRoundTrip) {
    // config_from_doc / config_to_doc are the document-level halves that
    // campaign files reuse for their base-config section.
    ColorPickerConfig original;
    original.target = {5, 10, 15};
    original.solver = "anneal";
    original.objective = Objective::DeltaE2000;
    original.total_samples = 10;
    original.batch_size = 5;
    original.seed = 3;

    const support::json::Value doc = config_to_doc(original);
    const ColorPickerConfig back = config_from_doc(doc);
    EXPECT_EQ(back.target, original.target);
    EXPECT_EQ(back.solver, original.solver);
    EXPECT_EQ(back.objective, original.objective);
    EXPECT_EQ(back.total_samples, original.total_samples);
    EXPECT_EQ(back.batch_size, original.batch_size);
    EXPECT_EQ(back.seed, original.seed);
    // The YAML path is exactly dump(doc) -> parse -> from_doc.
    EXPECT_EQ(config_to_yaml(original), support::yaml::dump(doc));
    EXPECT_THROW((void)config_from_doc(support::json::Value("scalar")),
                 support::ConfigError);
}

TEST(ConfigIo, ObjectiveStringsRoundTrip) {
    for (const Objective o :
         {Objective::RgbEuclidean, Objective::DeltaE76, Objective::DeltaE2000}) {
        EXPECT_EQ(objective_from_string(objective_to_string(o)), o);
    }
    EXPECT_THROW((void)objective_from_string("hsv"), support::ConfigError);
}

TEST(ConfigIo, ParsedConfigActuallyRuns) {
    ColorPickerConfig config = config_from_yaml(
        "experiment:\n"
        "  total_samples: 8\n"
        "  batch_size: 4\n"
        "  solver: anneal\n"
        "  seed: 13\n");
    ColorPickerApp app(config);
    const ExperimentOutcome outcome = app.run();
    EXPECT_EQ(outcome.samples.size(), 8u);
}
