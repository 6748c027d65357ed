// Tests for the WorkcellSpec subsystem: spec YAML round trips, loud
// validation errors (unknown devices, duplicate names), the scenario
// registry, spec application to experiment configs, runtime construction
// for non-baseline topologies, and the determinism guarantee for
// scenario-sweeping campaigns (same spec + seed => byte-identical JSON).
#include <gtest/gtest.h>

#include <fstream>

#include "campaign/campaign.hpp"
#include "campaign/campaign_io.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/colorpicker.hpp"
#include "core/config_io.hpp"
#include "core/presets.hpp"
#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"
#include "support/log.hpp"

using namespace sdl;
using namespace sdl::core;

// ------------------------------------------------------------ spec YAML

TEST(WorkcellSpec, ParsesFullDocument) {
    const char* text = R"(workcell:
  name: custom
  description: a test cell
  timing_scale: 0.5
  manual_handling_s: 12.5
plate:
  rows: 4
  cols: 6
devices:
  - kind: sciclops
    towers: 2
  - kind: pf400
    transfer_s: 30.0
  - kind: ot2
    count: 2
    per_well_s: 20.0
  - kind: camera
    glitch_prob: 0.1
faults:
  command_rejection_prob: 0.02
  rejection_latency_s: 7.5
  per_module: {ot2: 0.05}
)";
    const WorkcellSpec spec = workcell_spec_from_yaml(text);
    EXPECT_EQ(spec.name, "custom");
    EXPECT_EQ(spec.description, "a test cell");
    EXPECT_DOUBLE_EQ(spec.timing_scale, 0.5);
    EXPECT_DOUBLE_EQ(spec.manual_handling.to_seconds(), 12.5);
    EXPECT_EQ(spec.plate_rows, 4);
    EXPECT_EQ(spec.plate_cols, 6);
    ASSERT_EQ(spec.devices.size(), 4u);
    EXPECT_EQ(spec.devices[0].kind, DeviceKind::Sciclops);
    EXPECT_EQ(spec.devices[2].count, 2);
    ASSERT_TRUE(spec.faults.has_value());
    EXPECT_DOUBLE_EQ(spec.faults->command_rejection_prob, 0.02);
    EXPECT_DOUBLE_EQ(spec.faults->rejection_latency.to_seconds(), 7.5);
    EXPECT_DOUBLE_EQ(spec.faults->per_module.at("ot2"), 0.05);
}

TEST(WorkcellSpec, RoundTripsThroughYaml) {
    WorkcellSpec original = scenario_by_name("degraded");
    const WorkcellSpec back = workcell_spec_from_yaml(workcell_spec_to_yaml(original));
    EXPECT_EQ(back.name, original.name);
    EXPECT_EQ(back.description, original.description);
    EXPECT_DOUBLE_EQ(back.timing_scale, original.timing_scale);
    EXPECT_EQ(back.devices.size(), original.devices.size());
    for (std::size_t i = 0; i < back.devices.size(); ++i) {
        EXPECT_EQ(back.devices[i].kind, original.devices[i].kind);
        EXPECT_EQ(back.devices[i].name, original.devices[i].name);
        EXPECT_EQ(back.devices[i].count, original.devices[i].count);
        EXPECT_EQ(back.devices[i].options, original.devices[i].options);
    }
    ASSERT_TRUE(back.faults.has_value());
    EXPECT_DOUBLE_EQ(back.faults->command_rejection_prob,
                     original.faults->command_rejection_prob);
    EXPECT_EQ(back.faults->per_module, original.faults->per_module);
    // Every registry scenario round-trips to an equivalent applied config.
    for (const std::string& name : scenario_names()) {
        const WorkcellSpec spec = scenario_by_name(name);
        const WorkcellSpec reparsed =
            workcell_spec_from_yaml(workcell_spec_to_yaml(spec));
        const ColorPickerConfig a = apply_workcell_spec(ColorPickerConfig{}, spec);
        const ColorPickerConfig b = apply_workcell_spec(ColorPickerConfig{}, reparsed);
        EXPECT_EQ(config_to_yaml(a), config_to_yaml(b)) << name;
        EXPECT_EQ(a.workcell.ot2_count, b.workcell.ot2_count) << name;
    }
}

TEST(WorkcellSpec, UnknownDevicesAndKeysFailLoudly) {
    // Unknown device kind.
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\ndevices:\n"
                                               "  - kind: teleporter\n"),
                 support::ConfigError);
    // Unknown option for a known kind.
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\ndevices:\n"
                                               "  - kind: ot2\n    warp_factor: 9\n"),
                 support::ConfigError);
    // Unknown top-level / header keys.
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  nmae: typo\ndevices:\n"
                                               "  - kind: ot2\n  - kind: camera\n"),
                 support::ConfigError);
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\ntransport: des\n"
                                               "devices:\n  - kind: ot2\n"),
                 support::ConfigError);
    // Missing the marker section, the roster, or the spec's identity.
    EXPECT_THROW((void)workcell_spec_from_yaml("devices:\n  - kind: ot2\n"),
                 support::ConfigError);
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\n"),
                 support::ConfigError);
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  description: anon\n"
                                               "devices:\n  - kind: ot2\n"
                                               "  - kind: camera\n"),
                 support::ConfigError);
}

TEST(WorkcellSpec, ValidationRejectsBadRosters) {
    const auto spec_with = [](auto mutate) {
        WorkcellSpec spec = scenario_by_name("baseline");
        mutate(spec);
        return spec;
    };
    // Duplicate instance names (explicit duplicate and count collision).
    EXPECT_THROW(validate_workcell_spec(spec_with([](WorkcellSpec& s) {
                     s.devices.push_back(s.devices.back());
                 })),
                 support::ConfigError);
    // Camera and ot2 are mandatory.
    EXPECT_THROW(validate_workcell_spec(spec_with([](WorkcellSpec& s) {
                     s.devices.pop_back();  // camera is last in the roster
                 })),
                 support::ConfigError);
    EXPECT_THROW(validate_workcell_spec(spec_with([](WorkcellSpec& s) {
                     std::erase_if(s.devices, [](const DeviceSpec& d) {
                         return d.kind == DeviceKind::Ot2;
                     });
                 })),
                 support::ConfigError);
    // Only ot2 may fan out.
    EXPECT_THROW(validate_workcell_spec(spec_with([](WorkcellSpec& s) {
                     s.devices.front().count = 2;  // sciclops
                 })),
                 support::ConfigError);
    // Bad scalars.
    EXPECT_THROW(validate_workcell_spec(spec_with([](WorkcellSpec& s) {
                     s.timing_scale = 0.0;
                 })),
                 support::ConfigError);
    EXPECT_THROW(validate_workcell_spec(spec_with([](WorkcellSpec& s) {
                     wei::FaultConfig f;
                     f.command_rejection_prob = 1.5;
                     s.faults = f;
                 })),
                 support::ConfigError);
    // Out-of-range device options fail at validation, not mid-simulation.
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\ndevices:\n"
                                               "  - kind: pf400\n    transfer_s: -5\n"
                                               "  - kind: ot2\n  - kind: camera\n"),
                 support::ConfigError);
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\ndevices:\n"
                                               "  - kind: ot2\n  - kind: camera\n"
                                               "    max_frames: 0\n"),
                 support::ConfigError);
    EXPECT_THROW((void)workcell_spec_from_yaml(
                     "workcell:\n  name: x\ndevices:\n"
                     "  - kind: ot2\n    reservoir_capacity_ml: -1\n  - kind: camera\n"),
                 support::ConfigError);
    // Custom instance names would strand the module (workflows address
    // modules by kind name), so they are rejected loudly.
    EXPECT_THROW((void)workcell_spec_from_yaml("workcell:\n  name: x\ndevices:\n"
                                               "  - kind: ot2\n    name: mixer_b\n"
                                               "  - kind: camera\n"),
                 support::ConfigError);
}

// ------------------------------------------------------------- registry

TEST(Scenarios, RegistryShipsTheDocumentedPack) {
    const std::vector<std::string> expected{"baseline", "multi_ot2", "degraded",
                                           "fast_lane", "minimal"};
    EXPECT_EQ(scenario_names(), expected);
    for (const std::string& name : expected) {
        EXPECT_TRUE(is_scenario_name(name));
        const WorkcellSpec spec = scenario_by_name(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_FALSE(spec.description.empty());
        EXPECT_NO_THROW(validate_workcell_spec(spec));
    }
    EXPECT_FALSE(is_scenario_name("warp_core"));
    EXPECT_THROW((void)scenario_by_name("warp_core"), support::ConfigError);
}

TEST(Scenarios, ResolveAcceptsNamesAndFiles) {
    const WorkcellSpec named = resolve_scenario("fast_lane");
    EXPECT_DOUBLE_EQ(named.timing_scale, 0.25);

    const std::string path = ::testing::TempDir() + "/sdl_cell.yaml";
    {
        std::ofstream file(path);
        file << workcell_spec_to_yaml(scenario_by_name("minimal"));
    }
    const WorkcellSpec from_file = resolve_scenario(path);
    EXPECT_EQ(from_file.name, "minimal");
    EXPECT_THROW((void)resolve_scenario("/nonexistent/cell.yaml"), support::Error);
}

TEST(Scenarios, FileReferencesResolveRelativeToTheReferencingFile) {
    // A campaign in one directory referencing a spec file by a relative
    // path must load no matter where the process runs from.
    const std::string dir = ::testing::TempDir();
    {
        std::ofstream spec_file(dir + "/sdl_rel_cell.yaml");
        WorkcellSpec cell = scenario_by_name("fast_lane");
        cell.name = "rel_cell";
        spec_file << workcell_spec_to_yaml(cell);
    }
    {
        std::ofstream campaign_file(dir + "/sdl_rel_campaign.yaml");
        campaign_file << "campaign:\n  name: rel\ngrid:\n"
                         "  workcells: [baseline, sdl_rel_cell.yaml]\n"
                         "experiment:\n  total_samples: 4\n  batch_size: 2\n";
    }
    const campaign::CampaignSpec spec =
        campaign::campaign_from_file(dir + "/sdl_rel_campaign.yaml");
    const auto cells = campaign::expand_grid(spec);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[1].workcell, "rel_cell");
    EXPECT_DOUBLE_EQ(cells[1].config.pf400.timing.transfer.to_seconds(), 42.65 * 0.25);

    // Same for an experiment file's workcell.scenario key.
    {
        std::ofstream exp_file(dir + "/sdl_rel_exp.yaml");
        exp_file << "workcell:\n  scenario: sdl_rel_cell.yaml\n"
                    "experiment:\n  total_samples: 4\n";
    }
    const ColorPickerConfig config = config_from_file(dir + "/sdl_rel_exp.yaml");
    EXPECT_EQ(config.workcell.scenario, "rel_cell");

    // And for a campaign file's *base* workcell section, which resolves
    // its scenario while the base config parses.
    {
        std::ofstream campaign_file(dir + "/sdl_rel_campaign2.yaml");
        campaign_file << "campaign:\n  name: rel2\n"
                         "workcell:\n  scenario: sdl_rel_cell.yaml\n"
                         "experiment:\n  total_samples: 4\n  batch_size: 2\n";
    }
    const campaign::CampaignSpec base_spec =
        campaign::campaign_from_file(dir + "/sdl_rel_campaign2.yaml");
    EXPECT_EQ(base_spec.base.workcell.scenario, "rel_cell");
}

TEST(Scenarios, CollidingWorkcellAxisEntriesAreRejected) {
    const std::string path = ::testing::TempDir() + "/sdl_degraded_copy.yaml";
    {
        std::ofstream file(path);
        file << workcell_spec_to_yaml(scenario_by_name("degraded"));
    }
    campaign::CampaignSpec spec;
    spec.base.total_samples = 4;
    spec.base.batch_size = 2;
    // A registry name and a file that resolves to the same scenario name
    // would produce duplicate experiment ids.
    spec.axes.workcells = {"degraded", path};
    EXPECT_THROW((void)campaign::expand_grid(spec), support::ConfigError);
    spec.axes.workcells = {"degraded", "degraded"};
    EXPECT_THROW((void)campaign::expand_grid(spec), support::ConfigError);
}

// ----------------------------------------------------------- application

TEST(Scenarios, ApplyResolvesTopologyTimingsAndFaults) {
    const ColorPickerConfig base = preset_quickstart();

    const ColorPickerConfig multi =
        apply_workcell_spec(base, scenario_by_name("multi_ot2"));
    EXPECT_EQ(multi.workcell.scenario, "multi_ot2");
    EXPECT_EQ(multi.workcell.ot2_count, 3);
    EXPECT_TRUE(multi.workcell.has_sciclops);

    const ColorPickerConfig fast =
        apply_workcell_spec(base, scenario_by_name("fast_lane"));
    EXPECT_DOUBLE_EQ(fast.pf400.timing.transfer.to_seconds(), 42.65 * 0.25);
    EXPECT_DOUBLE_EQ(fast.ot2.timing.per_well.to_seconds(), 35.0 * 0.25);

    const ColorPickerConfig degraded =
        apply_workcell_spec(base, scenario_by_name("degraded"));
    EXPECT_DOUBLE_EQ(degraded.faults.command_rejection_prob, 0.03);
    EXPECT_DOUBLE_EQ(degraded.faults.per_module.at("ot2"), 0.08);
    EXPECT_DOUBLE_EQ(degraded.camera.glitch_prob, 0.05);

    const ColorPickerConfig minimal =
        apply_workcell_spec(base, scenario_by_name("minimal"));
    EXPECT_FALSE(minimal.workcell.has_sciclops);
    EXPECT_FALSE(minimal.workcell.has_pf400);
    EXPECT_FALSE(minimal.workcell.has_barty);
    // Applying a spec is idempotent (hardware starts from defaults).
    const ColorPickerConfig twice =
        apply_workcell_spec(fast, scenario_by_name("fast_lane"));
    EXPECT_DOUBLE_EQ(twice.pf400.timing.transfer.to_seconds(),
                     fast.pf400.timing.transfer.to_seconds());
    // The experiment knobs are untouched.
    EXPECT_EQ(minimal.total_samples, base.total_samples);
    EXPECT_EQ(minimal.solver, base.solver);
}

TEST(Scenarios, ExperimentYamlCanNameAScenario) {
    const ColorPickerConfig config = config_from_yaml(
        "workcell:\n"
        "  scenario: minimal\n"
        "  manual_handling_s: 33.0\n"
        "experiment:\n"
        "  total_samples: 8\n");
    EXPECT_EQ(config.workcell.scenario, "minimal");
    EXPECT_FALSE(config.workcell.has_pf400);
    EXPECT_DOUBLE_EQ(config.workcell.manual_handling.to_seconds(), 33.0);
    EXPECT_EQ(config.total_samples, 8);
    EXPECT_THROW((void)config_from_yaml("workcell:\n  scenario: warp_core\n"),
                 support::ConfigError);
    // Topology round-trips through the experiment document.
    const ColorPickerConfig back = config_from_yaml(config_to_yaml(config));
    EXPECT_EQ(back.workcell.scenario, "minimal");
    EXPECT_FALSE(back.workcell.has_barty);
    EXPECT_DOUBLE_EQ(back.workcell.manual_handling.to_seconds(), 33.0);
}

// ------------------------------------------------- runtime & experiments

TEST(Scenarios, RuntimeMountsTheDescribedTopology) {
    ColorPickerConfig config = preset_quickstart();
    config = apply_workcell_spec(config, scenario_by_name("multi_ot2"));
    WorkcellRuntime runtime(config);
    EXPECT_EQ(runtime.ot2s().size(), 3u);
    EXPECT_TRUE(runtime.registry().contains("ot2"));
    EXPECT_TRUE(runtime.registry().contains("ot2_2"));
    EXPECT_TRUE(runtime.registry().contains("ot2_3"));
    EXPECT_TRUE(runtime.locations().has_location("ot2_2.deck"));
    // Distinct noise streams per instance.
    EXPECT_EQ(runtime.registry().get("ot2_2").info().name, "ot2_2");

    ColorPickerConfig minimal_config =
        apply_workcell_spec(preset_quickstart(), scenario_by_name("minimal"));
    WorkcellRuntime minimal(minimal_config);
    EXPECT_FALSE(minimal.has_sciclops());
    EXPECT_FALSE(minimal.has_pf400());
    EXPECT_FALSE(minimal.has_barty());
    EXPECT_THROW((void)minimal.sciclops(), support::LogicError);
    // The stand-ins answer under the absent devices' names, not robotic.
    EXPECT_TRUE(minimal.registry().contains("pf400"));
    EXPECT_EQ(minimal.registry().get("pf400").info().model, "Human operator");
    EXPECT_FALSE(minimal.registry().get("pf400").info().robotic);
}

TEST(Scenarios, ExperimentsRunOnEveryShippedScenario) {
    support::set_log_level(support::LogLevel::Error);
    for (const std::string& name : scenario_names()) {
        ColorPickerConfig config = preset_quickstart();
        config.total_samples = 8;
        config.batch_size = 4;
        config = apply_workcell_spec(config, scenario_by_name(name));
        ColorPickerApp app(config);
        const ExperimentOutcome outcome = app.run();
        EXPECT_EQ(outcome.samples.size(), 8u) << name;
        EXPECT_LT(outcome.best_score, 1e300) << name;
    }
}

TEST(Scenarios, VisionRoiFastPathByteIdenticalAcrossScenarioPack) {
    // The marker-ROI reader must be invisible in the results: for every
    // shipped scenario, a run with the fast path on serializes to the
    // exact bytes of a run with it off (same seed, same workcell).
    support::set_log_level(support::LogLevel::Error);
    for (const std::string& name : scenario_names()) {
        const auto run_with = [&](bool fast) {
            ColorPickerConfig config = preset_quickstart();
            config.total_samples = 12;
            config.batch_size = 4;
            config = apply_workcell_spec(config, scenario_by_name(name));
            config.vision_roi_fast_path = fast;
            ColorPickerApp app(config);
            const ExperimentOutcome outcome = app.run();
            return campaign::experiment_result_to_json(app.config(), outcome).pretty();
        };
        EXPECT_EQ(run_with(true), run_with(false)) << name;
    }
}

TEST(Scenarios, ManualStandInsAreExcludedFromCcwh) {
    support::set_log_level(support::LogLevel::Error);
    const auto run_on = [](const char* scenario) {
        ColorPickerConfig config = preset_quickstart();
        config.total_samples = 8;
        config.batch_size = 4;
        config = apply_workcell_spec(config, scenario_by_name(scenario));
        ColorPickerApp app(config);
        return app.run();
    };
    const ExperimentOutcome baseline = run_on("baseline");
    const ExperimentOutcome minimal = run_on("minimal");
    // Same loop, same sample count — but the minimal cell's handling
    // commands are human actions, so CCWH drops.
    EXPECT_EQ(baseline.samples.size(), minimal.samples.size());
    EXPECT_LT(minimal.metrics.commands_completed, baseline.metrics.commands_completed);
}

// ---------------------------------------------------------- determinism

TEST(Scenarios, ScenarioCampaignIsByteIdenticalAcrossRuns) {
    support::set_log_level(support::LogLevel::Error);
    campaign::CampaignSpec spec;
    spec.name = "scenario_det";
    spec.base.total_samples = 6;
    spec.base.batch_size = 3;
    spec.base_seed = 21;
    spec.axes.workcells = {"baseline", "degraded", "minimal"};
    spec.axes.solvers = {"random"};

    campaign::CampaignRunnerOptions options;
    options.log_progress = false;
    const campaign::CampaignRunner runner(options);
    const auto first = runner.run(spec);
    const auto second = runner.run(spec);
    ASSERT_EQ(first.size(), 3u);
    const std::string json_a =
        campaign::campaign_results_to_json(spec, first).pretty();
    const std::string json_b =
        campaign::campaign_results_to_json(spec, second).pretty();
    EXPECT_EQ(json_a, json_b);
    // Each cell's result document records its scenario.
    const auto doc = support::json::parse(json_a);
    const auto& cells = doc.at("cells").as_array();
    EXPECT_EQ(cells[0].at("result").at("workcell").as_string(), "baseline");
    EXPECT_EQ(cells[1].at("result").at("workcell").as_string(), "degraded");
    EXPECT_EQ(cells[2].at("result").at("workcell").as_string(), "minimal");
}
