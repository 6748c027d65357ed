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
#include "core/workcell_runtime.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"
#include "support/log.hpp"
#include "wei/workflow.hpp"

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
    EXPECT_EQ(spec.devices[2].kind, DeviceKind::Ot2);
    EXPECT_DOUBLE_EQ(spec.devices[2].options.at("per_well_s").as_double(), 20.0);
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

TEST(WorkcellSpec, RejectsWrongTypedValuesNamingTheKey) {
    // A value of the wrong type is an error naming its key, never the
    // default (`timing_scale: fast` is not 1.0).
    const auto message = [](const std::string& yaml) {
        try {
            (void)workcell_spec_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const std::string x = "workcell: {name: x}\n";
    const std::string roster = "devices: [{kind: ot2}, {kind: camera}]\n";
    for (const auto& [yaml, key] : {
             std::pair{"workcell: {name: x, timing_scale: fast}\n" + roster, "timing_scale"},
             std::pair{"workcell: {name: 7}\n" + roster, "name"},
             std::pair{"workcell: {name: x, manual_handling_s: slow}\n" + roster,
                       "manual_handling_s"},
             std::pair{x + "plate: {rows: 8.5}\n" + roster, "plate.rows"},
             std::pair{x + "devices: [{kind: 3}, {kind: ot2}, {kind: camera}]\n",
                       "device kind"},
             std::pair{x + "devices: [{kind: pf400, transfer_s: fast}, {kind: ot2}, "
                           "{kind: camera}]\n",
                       "transfer_s"},
             std::pair{x + "devices: [{kind: sciclops, towers: 2.5}, {kind: ot2}, "
                           "{kind: camera}]\n",
                       "towers"},
             std::pair{x + "devices: [{kind: ot2}, {kind: camera, glitch_prob: \"0.1\"}]\n",
                       "glitch_prob"},
             std::pair{x + roster + "faults: {command_rejection_prob: high}\n",
                       "command_rejection_prob"},
             std::pair{x + roster + "faults: {per_module: {ot2: often}}\n",
                       "faults.per_module.ot2"},
             // A scalar where a section or a mapping belongs.
             std::pair{"workcell: 5\n" + roster, "workcell"},
             std::pair{x + "plate: big\n" + roster, "plate"},
             std::pair{x + roster + "faults: 5\n", "faults"},
             std::pair{x + roster + "faults: {per_module: 0.1}\n", "faults.per_module"},
         }) {
        const std::string what = message(yaml);
        EXPECT_NE(what.find(key), std::string::npos) << yaml << what;
        EXPECT_NE(what.find(" must be "), std::string::npos) << yaml << what;
    }
}

TEST(WorkcellSpec, ValidationRejectsBadRosters) {
    const auto spec_with = [](auto mutate) {
        WorkcellSpec spec = scenario_by_name("baseline");
        mutate(spec);
        return spec;
    };
    // A kind listed twice (both entries would register one module name).
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
    EXPECT_THROW((void)workcell_spec_from_yaml(
                     "workcell:\n  name: x\ndevices:\n"
                     "  - kind: ot2\n    reservoir_capacity_ml: -1\n  - kind: camera\n"),
                 support::ConfigError);
    // Counts past INT_MAX are refused naming the key, not narrowed to
    // their low bits (2^32 + 8 rows used to run an 8-row plate).
    const auto message = [](const std::string& yaml) {
        try {
            (void)workcell_spec_from_yaml(yaml);
        } catch (const support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const std::string roster = "devices:\n  - kind: ot2\n  - kind: camera\n";
    EXPECT_NE(message("workcell:\n  name: x\nplate:\n  rows: 4294967304\n" + roster)
                  .find("plate.rows"),
              std::string::npos);
    EXPECT_NE(message("workcell:\n  name: x\nplate:\n  cols: 4294967308\n" + roster)
                  .find("plate.cols"),
              std::string::npos);
    EXPECT_NE(message("workcell:\n  name: x\ndevices:\n  - kind: sciclops\n"
                      "    towers: 4294967297\n  - kind: ot2\n  - kind: camera\n")
                  .find("towers"),
              std::string::npos);
    // A rejection probability of 1, global or per module, rejects every
    // command, and the human rescue would retry it forever.
    for (const auto& [faults, key] :
         {std::pair{"{command_rejection_prob: 1.0}", "faults.command_rejection_prob"},
          std::pair{"{per_module: {pf400: 1.0}}", "faults.per_module.pf400"}}) {
        const std::string what =
            message("workcell:\n  name: x\n" + roster + "faults: " + faults + "\n");
        EXPECT_NE(what.find(std::string(key) + " must be a probability in [0, 1)"),
                  std::string::npos)
            << faults << ": " << what;
    }
    // Every device option refuses its rule's bad value, naming the key:
    // a count of 0, negative seconds or amounts, 0 mL, a probability of 1.5.
    struct BadOption {
        std::string kind;
        std::string key;
        std::string value;
        std::string rule;
    };
    const std::string count = "must be an integer in [1, ";
    const std::string negative = "cannot be negative";
    const std::string capacity = "must be a positive capacity";
    const std::string probability = "must be a probability in [0, 1]";
    for (const BadOption& bad : {BadOption{"sciclops", "towers", "0", count},
                                 BadOption{"sciclops", "plates_per_tower", "0", count},
                                 BadOption{"sciclops", "get_plate_s", "-1", negative},
                                 BadOption{"pf400", "transfer_s", "-1", negative},
                                 BadOption{"ot2", "protocol_overhead_s", "-1", negative},
                                 BadOption{"ot2", "per_well_s", "-1", negative},
                                 BadOption{"ot2", "dispense_cv", "1.5", probability},
                                 BadOption{"ot2", "dispense_sigma_ul", "-0.1", negative},
                                 BadOption{"ot2", "reservoir_capacity_ml", "0", capacity},
                                 BadOption{"ot2", "clog_prob", "1.5", probability},
                                 BadOption{"ot2", "dye_drift_per_well", "-0.001", negative},
                                 BadOption{"barty", "fill_s", "-1", negative},
                                 BadOption{"barty", "drain_s", "-1", negative},
                                 BadOption{"barty", "refill_s", "-1", negative},
                                 BadOption{"barty", "prime_s", "-1", negative},
                                 BadOption{"barty", "bulk_capacity_ml", "0", capacity},
                                 BadOption{"camera", "capture_s", "-1", negative},
                                 BadOption{"camera", "glitch_prob", "1.5", probability},
                                 BadOption{"camera", "drift_per_frame", "-0.001", negative}}) {
        std::string yaml = "workcell:\n  name: x\ndevices:\n";
        for (const std::string kind : {"sciclops", "pf400", "ot2", "barty", "camera"}) {
            yaml += "  - kind: " + kind + "\n";
            if (kind == bad.kind) yaml += "    " + bad.key + ": " + bad.value + "\n";
        }
        EXPECT_NE(message(yaml).find("device option '" + bad.key + "' " + bad.rule),
                  std::string::npos)
            << message(yaml);
    }
    // Plate formats whose well count or camera frame would overflow an
    // int are refused at parse time, naming the side (65536 x 65536
    // wells overflowed finalize_config's capacity check; a 30000000 x 1
    // plate drew a frame wider than INT_MAX pixels).
    for (const auto& [plate, key] :
         {std::pair{"{rows: 65536, cols: 65536}", "plate.rows"},
          std::pair{"{rows: 30000000, cols: 1}", "plate.rows"},
          std::pair{"{rows: 1, cols: 30000000}", "plate.cols"},
          std::pair{"{rows: 65, cols: 96}", "plate.rows"},
          std::pair{"{rows: 64, cols: 97}", "plate.cols"}}) {
        const std::string what =
            message("workcell:\n  name: x\nplate: " + std::string(plate) + "\n" + roster);
        EXPECT_NE(what.find(key), std::string::npos) << plate << ": " << what;
    }
    EXPECT_EQ(message("workcell:\n  name: x\nplate: {rows: 64, cols: 96}\n" + roster),
              "accepted");
    // The camera holds one frame and has no capacity option; a workcell
    // mounts one OT2; the sciclops has no status action.
    EXPECT_NE(message("workcell:\n  name: x\ndevices:\n"
                      "  - kind: ot2\n  - kind: camera\n    max_frames: 4\n")
                  .find("unknown option 'max_frames' for device kind 'camera'"),
              std::string::npos);
    EXPECT_NE(message("workcell:\n  name: x\ndevices:\n"
                      "  - kind: ot2\n    count: 3\n  - kind: camera\n")
                  .find("unknown option 'count' for device kind 'ot2'"),
              std::string::npos);
    EXPECT_NE(message("workcell:\n  name: x\ndevices:\n  - kind: sciclops\n"
                      "    status_s: 0.5\n  - kind: ot2\n  - kind: camera\n")
                  .find("unknown option 'status_s' for device kind 'sciclops'"),
              std::string::npos);
    // Custom instance names would strand the module (workflows address
    // modules by kind name), so they are rejected loudly; a name equal to
    // the kind is accepted.
    EXPECT_NE(message("workcell:\n  name: x\ndevices:\n"
                      "  - kind: ot2\n    name: mixer_b\n  - kind: camera\n")
                  .find("custom instance names are not supported"),
              std::string::npos);
    EXPECT_EQ(message("workcell:\n  name: x\ndevices:\n"
                      "  - kind: ot2\n    name: ot2\n  - kind: camera\n"),
              "accepted");
}

// ------------------------------------------------------------- registry

TEST(Scenarios, RegistryShipsTheDocumentedPack) {
    const std::vector<std::string> expected{"baseline", "degraded", "fast_lane", "minimal"};
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

TEST(Scenarios, ExampleFilesMirrorTheRegistry) {
    // examples/scenarios/<name>.yaml is the copyable form of each registry
    // scenario; only the prose description may differ.
    for (const std::string& name : scenario_names()) {
        WorkcellSpec file = workcell_spec_from_file(
            std::string(SDLBENCH_SOURCE_DIR) + "/examples/scenarios/" + name + ".yaml");
        WorkcellSpec registry = scenario_by_name(name);
        file.description.clear();
        registry.description.clear();
        EXPECT_EQ(workcell_spec_to_doc(file).dump(), workcell_spec_to_doc(registry).dump())
            << name;
    }
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

    const ColorPickerConfig baseline =
        apply_workcell_spec(base, scenario_by_name("baseline"));
    EXPECT_EQ(baseline.workcell.scenario, "baseline");
    EXPECT_TRUE(baseline.workcell.has_sciclops);
    EXPECT_TRUE(baseline.workcell.has_pf400);
    EXPECT_TRUE(baseline.workcell.has_barty);

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
    // Every workcell mounts the five instruments the Figure-2 workflows
    // command; a handling device the scenario leaves out is run by hand
    // under its own name, and is not robotic.
    for (const std::string& name : scenario_names()) {
        WorkcellRuntime runtime(
            apply_workcell_spec(preset_quickstart(), scenario_by_name(name)));
        const WorkcellTopology& topology = runtime.config().workcell;
        for (const auto& [module, robotic] :
             {std::pair{"sciclops", topology.has_sciclops},
              std::pair{"pf400", topology.has_pf400}, std::pair{"ot2", true},
              std::pair{"barty", topology.has_barty}, std::pair{"camera", false}}) {
            ASSERT_TRUE(runtime.registry().contains(module)) << name << " " << module;
            EXPECT_EQ(runtime.registry().get(module).info().robotic, robotic)
                << name << " " << module;
        }
    }
}

// ------------------------------------------------------ hand-run devices

namespace {

/// The minimal workcell (camera + ot2; sciclops, pf400 and barty run by
/// hand) at 25 s per hand-run action and half speed overall, so every
/// hand-run action takes 12.5 s.
ColorPickerConfig hand_run_config() {
    WorkcellSpec spec = scenario_by_name("minimal");
    spec.timing_scale = 0.5;
    spec.manual_handling = support::Duration::seconds(25.0);
    return apply_workcell_spec(preset_quickstart(), spec);
}

wei::WorkflowStep step(const char* module, const char* action,
                       support::json::Value args = support::json::Value::object()) {
    return {std::string(module) + "." + action, module, action, std::move(args)};
}

wei::WorkflowStep transfer(const char* source, const char* target) {
    support::json::Value args = support::json::Value::object();
    args.set("source", source);
    args.set("target", target);
    return step("pf400", "transfer", std::move(args));
}

}  // namespace

TEST(HandRunDevices, SciclopsServesMorePlatesThanItsTowersHold) {
    const wei::Workflow fetch_and_trash(
        "fetch_and_trash", {step("sciclops", "get_plate"),
                            transfer(wei::locations::kExchange, wei::locations::kTrash)});
    const auto with_two_plates = [](ColorPickerConfig config) {
        config.sciclops.towers = 1;
        config.sciclops.plates_per_tower = 2;
        return config;
    };
    WorkcellRuntime by_hand(with_two_plates(hand_run_config()));
    for (int plate = 0; plate < 5; ++plate) {
        EXPECT_NO_THROW((void)by_hand.engine().run(fetch_and_trash)) << "plate " << plate;
    }
    // The robot-run sciclops holds only what its towers do.
    WorkcellRuntime robot(with_two_plates(preset_quickstart()));
    (void)robot.engine().run(fetch_and_trash);
    (void)robot.engine().run(fetch_and_trash);
    EXPECT_THROW((void)robot.engine().run(fetch_and_trash), wei::WorkflowError);
}

TEST(HandRunDevices, BartyRefillsPastItsBulkCapacity) {
    const wei::Workflow refill("refill", {step("barty", "refill_colors")});
    const auto with_one_fill = [](ColorPickerConfig config) {
        config.barty.bulk_capacity = support::Volume::milliliters(30.0);  // 25 mL reservoirs
        return config;
    };
    WorkcellRuntime by_hand(with_one_fill(hand_run_config()));
    for (int fill = 0; fill < 4; ++fill) {
        EXPECT_NO_THROW((void)by_hand.engine().run(refill)) << "refill " << fill;
        for (const auto& reservoir : by_hand.ot2().reservoirs()) {
            EXPECT_DOUBLE_EQ(reservoir.fill_fraction(), 1.0) << "refill " << fill;
        }
    }
    // The robot-run barty's vessels run dry.
    WorkcellRuntime robot(with_one_fill(preset_quickstart()));
    (void)robot.engine().run(refill);
    EXPECT_THROW((void)robot.engine().run(refill), wei::WorkflowError);
}

TEST(HandRunDevices, EveryActionTakesTheHandlingTimeAndIsNotRobotic) {
    WorkcellRuntime runtime(hand_run_config());
    ASSERT_DOUBLE_EQ(runtime.config().workcell.manual_handling.to_seconds(), 12.5);
    const wei::Workflow every_action(
        "every_action",
        {step("sciclops", "get_plate"), step("barty", "fill_colors"),
         transfer(wei::locations::kExchange, wei::locations::kOt2Deck),
         step("barty", "drain_colors"), step("barty", "refill_colors"),
         step("barty", "prime_tips"),
         transfer(wei::locations::kOt2Deck, wei::locations::kTrash)});
    (void)runtime.engine().run(every_action);
    const auto& steps = runtime.event_log().steps();
    ASSERT_EQ(steps.size(), 7u);
    for (const wei::StepRecord& record : steps) {
        EXPECT_EQ(record.status, wei::ActionStatus::Succeeded) << record.step;
        EXPECT_DOUBLE_EQ(record.duration().to_seconds(), 12.5) << record.step;
        EXPECT_FALSE(record.robotic) << record.step;
    }
    // None of it counts toward commands completed without humans.
    EXPECT_EQ(runtime.event_log().successful_commands(), 0u);
}

TEST(HandRunDevices, BartyPrimesTheOt2) {
    ColorPickerConfig config = hand_run_config();
    config.ot2.clog_prob = 1.0;  // every protocol leaves a tip clogged
    WorkcellRuntime runtime(config);
    std::vector<devices::DispenseOrder> orders(1);
    orders[0].volumes = {support::Volume::microliters(20.0), support::Volume::microliters(20.0),
                         support::Volume::microliters(20.0), support::Volume::microliters(20.0)};
    (void)runtime.engine().run(wei::Workflow(
        "mix_one", {step("sciclops", "get_plate"), step("barty", "fill_colors"),
                    transfer(wei::locations::kExchange, wei::locations::kOt2Deck),
                    step("ot2", "run_protocol", devices::Ot2Sim::make_protocol_args(orders))}));
    ASSERT_TRUE(runtime.ot2().needs_prime());
    (void)runtime.engine().run(wei::Workflow("reprime", {step("barty", "prime_tips")}));
    EXPECT_FALSE(runtime.ot2().needs_prime());
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

TEST(Scenarios, HandRunDevicesAreExcludedFromCcwh) {
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

    const auto first = campaign::run(spec);
    const auto second = campaign::run(spec);
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
