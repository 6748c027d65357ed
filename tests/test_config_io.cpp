// Tests for experiment-configuration YAML I/O (the CLI's input format).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <tuple>
#include <utility>

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
    // A workcell mounts one OT2: the fan-out key is unknown, not ignored.
    try {
        (void)config_from_yaml("workcell:\n  ot2_count: 2\n");
        ADD_FAILURE() << "workcell.ot2_count accepted";
    } catch (const support::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown key 'ot2_count' in workcell"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigIo, RejectsBadValues) {
    EXPECT_THROW((void)config_from_yaml("experiment:\n  target: [300, 0, 0]\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("experiment:\n  target: [1, 2]\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("experiment:\n  objective: hsv\n"),
                 support::ConfigError);
    EXPECT_THROW((void)config_from_yaml("just a scalar"), support::Error);

    // Out-of-range values are refused when read, naming the key: at a
    // rejection probability of 1 no command ever runs and the human
    // rescue retries forever; a negative well volume dispenses negative
    // dye; a negative hand-run time used to die in finalize_config.
    const auto message = [](const std::string& yaml) {
        try {
            (void)config_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    for (const auto& [yaml, key] : {
             std::pair{"faults: {command_rejection_prob: 1.0}\n",
                       "faults.command_rejection_prob"},
             std::pair{"faults: {command_rejection_prob: 2.0}\n",
                       "faults.command_rejection_prob"},
             std::pair{"faults: {command_rejection_prob: -0.1}\n",
                       "faults.command_rejection_prob"},
             std::pair{"well_volume_ul: -80\n", "well_volume_ul"},
             std::pair{"well_volume_ul: 0\n", "well_volume_ul"},
             std::pair{"workcell: {scenario: minimal, manual_handling_s: -5}\n",
                       "workcell.manual_handling_s"},
         }) {
        const std::string what = message(yaml);
        EXPECT_NE(what.find(key), std::string::npos) << yaml << what;
    }
    EXPECT_EQ(message("faults: {command_rejection_prob: 0.99}\n"), "accepted");

    // finalize_config refuses the same values in a config built in code.
    const auto finalize_message = [](auto mutate) {
        ColorPickerConfig config;
        mutate(config);
        try {
            (void)finalize_config(std::move(config));
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_NE(finalize_message([](ColorPickerConfig& c) {
                  c.faults.command_rejection_prob = 1.0;
              }).find("faults.command_rejection_prob"),
              std::string::npos);
    EXPECT_NE(finalize_message([](ColorPickerConfig& c) {
                  c.faults.per_module["pf400"] = 1.0;
              }).find("faults.per_module.pf400"),
              std::string::npos);
    EXPECT_NE(finalize_message([](ColorPickerConfig& c) {
                  c.well_volume = support::Volume::microliters(-80.0);
              }).find("well_volume_ul"),
              std::string::npos);
}

TEST(ConfigIo, RejectsNonPositivePlateDimensions) {
    // rows: -8, cols: -12 multiply to a capacity that fits any batch, and
    // rows: 0 used to surface as "batch cannot exceed plate capacity".
    const auto message = [](const std::string& yaml) {
        try {
            (void)config_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_NE(message("plate:\n  rows: -8\n  cols: -12\n").find("plate.rows"),
              std::string::npos);
    EXPECT_NE(message("plate:\n  rows: 0\n").find("plate.rows"), std::string::npos);
    EXPECT_NE(message("plate:\n  cols: 0\n").find("plate.cols"), std::string::npos);
    EXPECT_NE(message("plate:\n  cols: 4294967308\n").find("plate.cols"),
              std::string::npos);  // would wrap to 12 as an int

    // A config built in code fails in finalize_config, naming the field.
    for (const auto& [rows, cols, key] :
         {std::tuple{-8, -12, "plate.rows"}, std::tuple{0, 12, "plate.rows"},
          std::tuple{8, 0, "plate.cols"}}) {
        ColorPickerConfig config;
        config.plate_rows = rows;
        config.plate_cols = cols;
        try {
            (void)finalize_config(std::move(config));
            ADD_FAILURE() << rows << "x" << cols << " accepted";
        } catch (const support::ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
        }
    }
}

TEST(ConfigIo, RejectsPlateFormatsThatOverflowAnInt) {
    const auto message = [](const std::string& yaml) {
        try {
            (void)config_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    // Formats whose well count or camera frame would overflow an int are
    // refused at parse time, naming the side: 65536 x 65536 wells
    // overflowed finalize_config's capacity check, and a 30000000 x 1
    // plate drew a frame wider than INT_MAX pixels. The bound is 64 x 96.
    for (const auto& [plate, key] :
         {std::pair{"{rows: 65536, cols: 65536}", "plate.rows"},
          std::pair{"{rows: 30000000, cols: 1}", "plate.rows"},
          std::pair{"{rows: 1, cols: 30000000}", "plate.cols"},
          std::pair{"{rows: 65, cols: 96}", "plate.rows"},
          std::pair{"{rows: 64, cols: 97}", "plate.cols"}}) {
        const std::string what = message("experiment: {total_samples: 4, batch_size: 4}\n"
                                          "plate: " + std::string(plate) + "\n");
        EXPECT_NE(what.find(key), std::string::npos) << plate << ": " << what;
    }
    // Every format the repo runs, and the largest, still parse.
    for (const auto& [rows, cols] : {std::pair{8, 12}, std::pair{8, 16}, std::pair{16, 24},
                                     std::pair{32, 48}, std::pair{64, 96}}) {
        const ColorPickerConfig config = config_from_yaml(
            "plate: {rows: " + std::to_string(rows) + ", cols: " + std::to_string(cols) + "}\n");
        EXPECT_EQ(config.plate_rows, rows);
        EXPECT_EQ(config.plate_cols, cols);
    }

    // finalize_config applies the same bound to a config built in code.
    ColorPickerConfig config;
    config.plate_rows = 65536;
    config.plate_cols = 65536;
    try {
        (void)finalize_config(std::move(config));
        ADD_FAILURE() << "65536x65536 accepted";
    } catch (const support::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("plate.rows"), std::string::npos) << e.what();
    }
}

TEST(ConfigIo, RejectsCountsOutsideThePositiveIntRangeNamingTheKey) {
    // Each of these used to be narrowed by static_cast<int>: 2^32 + 8
    // samples ran N=8, 2^32 + 4 ran B=4.
    const auto message = [](const std::string& yaml) {
        try {
            (void)config_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    for (const auto& [section, key] :
         {std::pair{"experiment", "total_samples"}, std::pair{"experiment", "batch_size"},
          std::pair{"retry", "max_attempts"}}) {
        const std::string name = std::string(section) + "." + key;
        for (const char* value : {"4294967304", "0", "-3"}) {
            const std::string yaml =
                std::string(section) + ":\n  " + key + ": " + value + "\n";
            EXPECT_NE(message(yaml).find(name), std::string::npos) << name << "=" << value;
        }
    }
    // The top of the range still parses.
    EXPECT_EQ(config_from_yaml("experiment:\n  total_samples: 2147483647\n").total_samples,
              2147483647);
}

TEST(ConfigIo, RejectsWrongTypedValuesNamingTheKey) {
    // A value of the wrong type is an error naming its key, never the
    // default.
    const auto message = [](const std::string& yaml) {
        try {
            (void)config_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    for (const auto& [yaml, key] : {
             std::pair{"experiment:\n  total_samples: many\n", "total_samples"},
             std::pair{"experiment:\n  batch_size: 2.5\n", "batch_size"},
             std::pair{"experiment:\n  publish: \"no\"\n", "publish"},
             std::pair{"experiment:\n  solver: 3\n", "solver"},
             std::pair{"experiment:\n  seed: abc\n", "seed"},
             std::pair{"experiment:\n  stop_threshold: low\n", "stop_threshold"},
             std::pair{"experiment:\n  id: [1]\n", "id"},
             std::pair{"experiment:\n  objective: 2\n", "experiment.objective"},
             std::pair{"experiment:\n  target: [255, 128, x]\n", "experiment.target"},
             std::pair{"workcell:\n  scenario: 3\n", "workcell.scenario"},
             std::pair{"workcell:\n  sciclops: \"yes\"\n", "sciclops"},
             std::pair{"workcell:\n  manual_handling_s: slow\n", "manual_handling_s"},
             std::pair{"plate:\n  rows: 8.5\n", "rows"},
             std::pair{"well_volume_ul: lots\n", "well_volume_ul"},
             std::pair{"faults:\n  command_rejection_prob: high\n", "command_rejection_prob"},
             std::pair{"retry:\n  max_attempts: 2.0\n", "max_attempts"},
             std::pair{"retry:\n  human_rescue: 1\n", "human_rescue"},
             // A section that is not a mapping would otherwise read as
             // all-defaults (`workcell: minimal` ran the baseline cell).
             std::pair{"workcell: minimal\n", "workcell"},
             std::pair{"experiment: 5\n", "experiment"},
             std::pair{"plate: big\n", "plate"},
             std::pair{"faults: [0.1]\n", "faults"},
             std::pair{"retry: 3\n", "retry"},
         }) {
        const std::string what = message(yaml);
        EXPECT_NE(what.find(key), std::string::npos) << yaml << what;
        EXPECT_NE(what.find(" must be "), std::string::npos) << yaml << what;
    }
    // An integer still reads where a number is asked, and null keeps the
    // default.
    EXPECT_DOUBLE_EQ(config_from_yaml("experiment:\n  stop_threshold: 2\n").stop_threshold,
                     2.0);
    EXPECT_EQ(config_from_yaml("experiment:\n  batch_size: null\n").batch_size,
              ColorPickerConfig{}.batch_size);
    // A null section is an absent one.
    EXPECT_EQ(config_from_yaml("workcell:\nexperiment:\n  total_samples: 8\n").total_samples,
              8);
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
