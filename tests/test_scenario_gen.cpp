// Property-test pass over the procedural scenario layer
// (core/scenario_gen.hpp): a 200-seed sweep pinning validity, bitwise
// YAML round trips, and regeneration determinism; the generated-ref
// grammar's loud negative paths (in the library, experiment YAML, and
// campaign axes); range fan-out on the campaign workcells axis; sampled
// end-to-end runs across all three plate formats; and the difficulty
// probe's determinism.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/campaign_io.hpp"
#include "core/colorpicker.hpp"
#include "core/config_io.hpp"
#include "core/presets.hpp"
#include "core/scenario_gen.hpp"
#include "core/scenarios.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"
#include "support/log.hpp"

using namespace sdl;
using namespace sdl::core;

namespace {

constexpr std::uint64_t kSweepSeeds = 200;

/// 64-bit FNV-1a, the digest the pinned-text tests record.
std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/// A spec that sets every device option, off its default.
constexpr const char* kEveryOptionSpec =
    "workcell: {name: every_option, timing_scale: 1.3, manual_handling_s: 11.0}\n"
    "plate: {rows: 16, cols: 24}\n"
    "devices:\n"
    "  - {kind: sciclops, towers: 3, plates_per_tower: 7, get_plate_s: 12.5}\n"
    "  - {kind: pf400, transfer_s: 40.25}\n"
    "  - {kind: ot2, protocol_overhead_s: 100.5, per_well_s: 30.0, dispense_cv: 0.03, "
    "dispense_sigma_ul: 0.5, reservoir_capacity_ml: 20.0, clog_prob: 0.01, "
    "dye_drift_per_well: 0.0002}\n"
    "  - {kind: barty, fill_s: 44.0, drain_s: 24.0, refill_s: 64.0, prime_s: 29.0, "
    "bulk_capacity_ml: 400.0}\n"
    "  - {kind: camera, capture_s: 1.25, glitch_prob: 0.02, drift_per_frame: 0.0005}\n"
    "faults: {command_rejection_prob: 0.01, rejection_latency_s: 4.0, "
    "per_module: {ot2: 0.02}}\n";

/// The ConfigError message for `thrower()` — the grammar's contract is
/// that every rejection names the offending token, so tests assert on
/// the message, not just the type.
template <typename Fn>
std::string config_error_of(Fn&& thrower) {
    try {
        thrower();
    } catch (const support::ConfigError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected support::ConfigError";
    return {};
}

}  // namespace

// ------------------------------------------------------------ ref grammar

TEST(GeneratedRefs, PrefixDetectionSaysNothingAboutWellFormedness) {
    EXPECT_TRUE(is_generated_ref("generated:seed=7"));
    EXPECT_TRUE(is_generated_ref("generated:"));
    EXPECT_TRUE(is_generated_ref("generated:anything"));
    EXPECT_FALSE(is_generated_ref("baseline"));
    EXPECT_FALSE(is_generated_ref("gen_7"));
    EXPECT_FALSE(is_generated_ref("cells/generated.yaml"));
}

TEST(GeneratedRefs, SingleSeedRefsParse) {
    EXPECT_EQ(parse_generated_ref("generated:seed=0"), 0u);
    EXPECT_EQ(parse_generated_ref("generated:seed=7"), 7u);
    EXPECT_EQ(parse_generated_ref("generated:seed=18446744073709551615"),
              18446744073709551615ull);
}

TEST(GeneratedRefs, MalformedRefsFailLoudlyNamingTheToken) {
    // Each rejection must carry the full offending ref so a typo in a
    // campaign grid is findable from the error alone.
    for (const std::string ref :
         {"generated:", "generated:seed=", "generated:seed=abc", "generated:seed=-3",
          "generated:seed=1.5", "generated:sede=7", "generated:seed=7 "}) {
        const std::string what =
            config_error_of([&] { (void)parse_generated_ref(ref); });
        EXPECT_NE(what.find("'" + ref + "'"), std::string::npos) << what;
        const std::string expand_what =
            config_error_of([&] { (void)expand_generated_refs(ref); });
        EXPECT_NE(expand_what.find("'" + ref + "'"), std::string::npos) << expand_what;
    }
    // Ranges are a campaign-axis construct; single-scenario contexts
    // reject them with a pointer at the right spelling.
    const std::string range_what =
        config_error_of([] { (void)parse_generated_ref("generated:seed=1..3"); });
    EXPECT_NE(range_what.find("'generated:seed=1..3'"), std::string::npos);
    EXPECT_NE(range_what.find("workcells axis"), std::string::npos);
}

TEST(GeneratedRefs, RangeExpansionIsInclusiveAndOrdered) {
    EXPECT_EQ(expand_generated_refs("generated:seed=5"),
              (std::vector<std::string>{"generated:seed=5"}));
    EXPECT_EQ(expand_generated_refs("generated:seed=2..4"),
              (std::vector<std::string>{"generated:seed=2", "generated:seed=3",
                                        "generated:seed=4"}));
    EXPECT_EQ(expand_generated_refs("generated:seed=9..9"),
              (std::vector<std::string>{"generated:seed=9"}));
    // A range that ends at the largest seed ends there.
    EXPECT_EQ(expand_generated_refs("generated:seed=18446744073709551614..18446744073709551615"),
              (std::vector<std::string>{"generated:seed=18446744073709551614",
                                        "generated:seed=18446744073709551615"}));
    // Non-generated refs pass through untouched (the axis mixes named
    // scenarios, spec files, and generated refs freely).
    EXPECT_EQ(expand_generated_refs("baseline"),
              (std::vector<std::string>{"baseline"}));
}

TEST(GeneratedRefs, EmptyAndOversizedRangesAreRejected) {
    const std::string empty_what =
        config_error_of([] { (void)expand_generated_refs("generated:seed=1..0"); });
    EXPECT_NE(empty_what.find("'generated:seed=1..0'"), std::string::npos);
    EXPECT_NE(empty_what.find("empty seed range"), std::string::npos);

    const std::string wide_what =
        config_error_of([] { (void)expand_generated_refs("generated:seed=0..4096"); });
    EXPECT_NE(wide_what.find("'generated:seed=0..4096'"), std::string::npos);
    EXPECT_NE(wide_what.find("limit"), std::string::npos);
    // Exactly at the cap is fine.
    EXPECT_EQ(expand_generated_refs("generated:seed=1..4096").size(), 4096u);
    // The whole seed space spans 2^64 scenarios, a count that wraps to 0
    // in 64 bits.
    const std::string all_what = config_error_of(
        [] { (void)expand_generated_refs("generated:seed=0..18446744073709551615"); });
    EXPECT_NE(all_what.find("'generated:seed=0..18446744073709551615'"), std::string::npos)
        << all_what;
    EXPECT_NE(all_what.find("limit of 4096"), std::string::npos) << all_what;

    const std::string bad_hi_what =
        config_error_of([] { (void)expand_generated_refs("generated:seed=1..x"); });
    EXPECT_NE(bad_hi_what.find("'generated:seed=1..x'"), std::string::npos);
}

// ------------------------------------------------------ 200-seed sweep

TEST(GeneratedScenarios, SweepIsValidRoundTrippableAndDeterministic) {
    std::set<std::string> plate_formats;
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
        const WorkcellSpec spec = generate_scenario(seed);
        EXPECT_EQ(spec.name, "gen_" + std::to_string(seed));
        EXPECT_NO_THROW(validate_workcell_spec(spec)) << spec.name;

        // The spec survives a YAML round trip bitwise: the workcell.yaml
        // a run saves next to its results reproduces the run exactly.
        const std::string yaml = workcell_spec_to_yaml(spec);
        EXPECT_EQ(workcell_spec_to_yaml(workcell_spec_from_yaml(yaml)), yaml)
            << spec.name;
        // Same seed => same bytes, every time.
        EXPECT_EQ(workcell_spec_to_yaml(generate_scenario(seed)), yaml) << spec.name;

        ASSERT_TRUE(spec.plate_rows.has_value());
        ASSERT_TRUE(spec.plate_cols.has_value());
        plate_formats.insert(std::to_string(*spec.plate_rows) + "x" +
                             std::to_string(*spec.plate_cols));

        // Structural invariants of the family: camera and ot2 are
        // mandatory, rosters stay within the modeled hardware.
        int ot2s = 0;
        int cameras = 0;
        for (const DeviceSpec& d : spec.devices) {
            if (d.kind == DeviceKind::Ot2) ++ot2s;
            if (d.kind == DeviceKind::Camera) ++cameras;
        }
        EXPECT_EQ(ot2s, 1) << spec.name;
        EXPECT_EQ(cameras, 1) << spec.name;
        EXPECT_LE(spec.devices.size(), 5u) << spec.name;
        EXPECT_GE(spec.timing_scale, 0.4) << spec.name;
        EXPECT_LE(spec.timing_scale, 1.8) << spec.name;
    }
    // The sweep must exercise all three plate formats; if a distribution
    // tweak starves one, this is the canary.
    EXPECT_EQ(plate_formats,
              (std::set<std::string>{"8x12", "16x24", "32x48"}));
}

TEST(GeneratedScenarios, SpecTextIsPinnedPerSeed) {
    // 64-bit FNV-1a of workcell_spec_to_yaml(generate_scenario(seed)):
    // fleet_mixed's seeds 17..28 and more of each plate format (96-well
    // 1, 2, 17, 18, 21, 23, 24, 28; 384-well 3, 9, 19, 22, 26, 27;
    // 1536-well 20, 25, 43, 62). The generator's draws are one stream,
    // so dropping or adding a draw anywhere moves every value after it.
    struct Pin {
        std::uint64_t seed;
        std::uint64_t digest;
    };
    for (const Pin pin : {Pin{1, 0xe9c9e21036359680ULL}, Pin{2, 0x1037941effa34c94ULL},
                          Pin{3, 0x2a00bbbccbce51c1ULL}, Pin{9, 0x7c9f3029a0aab55cULL},
                          Pin{17, 0x04b8938952c90d1aULL}, Pin{18, 0x601b60b6adeee40eULL},
                          Pin{19, 0x72bfb93c615fe402ULL}, Pin{20, 0x7b93f7fba7f59409ULL},
                          Pin{21, 0x127c4e3adedac91cULL}, Pin{22, 0x19022267c34c8ca8ULL},
                          Pin{23, 0xd8b7b0eaddeac83bULL}, Pin{24, 0x84aedc88a8c17939ULL},
                          Pin{25, 0x38037ef4ee5ef343ULL}, Pin{26, 0x76ec18a8148f7a20ULL},
                          Pin{27, 0x3094a174b0583fe1ULL}, Pin{28, 0x9ad1637d407f6290ULL},
                          Pin{43, 0x6c0c175fa6645e49ULL}, Pin{62, 0x11e1d32c38822c04ULL}}) {
        const std::string yaml = workcell_spec_to_yaml(generate_scenario(pin.seed));
        EXPECT_EQ(fnv1a(yaml), pin.digest) << "seed " << pin.seed << ":\n" << yaml;
    }
}

namespace {

/// Every field apply_workcell_spec sets that the run reads, compared
/// exactly. A hand-run device's own timings and stock are never read
/// (every action takes manual_handling, and stock never runs out), so a
/// handling device's fields are compared only where it is mounted.
void expect_same_hardware(const ColorPickerConfig& a, const ColorPickerConfig& b,
                          const std::string& what) {
    EXPECT_EQ(a.workcell.scenario, b.workcell.scenario) << what;
    ASSERT_EQ(a.workcell.has_sciclops, b.workcell.has_sciclops) << what;
    ASSERT_EQ(a.workcell.has_pf400, b.workcell.has_pf400) << what;
    ASSERT_EQ(a.workcell.has_barty, b.workcell.has_barty) << what;
    EXPECT_EQ(a.workcell.manual_handling, b.workcell.manual_handling) << what;
    EXPECT_EQ(a.plate_rows, b.plate_rows) << what;
    EXPECT_EQ(a.plate_cols, b.plate_cols) << what;
    if (a.workcell.has_sciclops) {
        EXPECT_EQ(a.sciclops.towers, b.sciclops.towers) << what;
        EXPECT_EQ(a.sciclops.plates_per_tower, b.sciclops.plates_per_tower) << what;
        EXPECT_EQ(a.sciclops.timing.get_plate, b.sciclops.timing.get_plate) << what;
    }
    if (a.workcell.has_pf400) {
        EXPECT_EQ(a.pf400.timing.transfer, b.pf400.timing.transfer) << what;
    }
    EXPECT_EQ(a.ot2.timing.protocol_overhead, b.ot2.timing.protocol_overhead) << what;
    EXPECT_EQ(a.ot2.timing.per_well, b.ot2.timing.per_well) << what;
    EXPECT_EQ(a.ot2.dispense_cv, b.ot2.dispense_cv) << what;
    EXPECT_EQ(a.ot2.dispense_sigma_ul, b.ot2.dispense_sigma_ul) << what;
    EXPECT_EQ(a.ot2.reservoir_capacity, b.ot2.reservoir_capacity) << what;
    EXPECT_EQ(a.ot2.clog_prob, b.ot2.clog_prob) << what;
    EXPECT_EQ(a.ot2.dye_drift_per_well, b.ot2.dye_drift_per_well) << what;
    if (a.workcell.has_barty) {
        EXPECT_EQ(a.barty.timing.fill, b.barty.timing.fill) << what;
        EXPECT_EQ(a.barty.timing.drain, b.barty.timing.drain) << what;
        EXPECT_EQ(a.barty.timing.refill, b.barty.timing.refill) << what;
        EXPECT_EQ(a.barty.timing.prime, b.barty.timing.prime) << what;
        EXPECT_EQ(a.barty.bulk_capacity, b.barty.bulk_capacity) << what;
    }
    EXPECT_EQ(a.camera.timing.capture, b.camera.timing.capture) << what;
    EXPECT_EQ(a.camera.glitch_prob, b.camera.glitch_prob) << what;
    EXPECT_EQ(a.camera.drift_per_frame, b.camera.drift_per_frame) << what;
    EXPECT_EQ(a.faults.command_rejection_prob, b.faults.command_rejection_prob) << what;
    EXPECT_EQ(a.faults.per_module, b.faults.per_module) << what;
    EXPECT_EQ(a.faults.rejection_latency, b.faults.rejection_latency) << what;
}

/// The resolved-spec text a campaign cell digest hashes.
std::string resolved_spec_yaml(const WorkcellSpec& spec) {
    return workcell_spec_to_yaml(workcell_spec_of(apply_workcell_spec(ColorPickerConfig{}, spec)));
}

}  // namespace

TEST(WorkcellSpecOf, ApplyOfSpecOfReproducesTheHardware) {
    // workcell_spec_of is what a campaign journal's cell digest hashes, so
    // it must carry every hardware value a spec can set: re-applying it
    // reproduces the config, for the registry pack and generated seeds.
    std::vector<std::pair<std::string, WorkcellSpec>> specs;
    for (const std::string& name : scenario_names()) {
        specs.emplace_back(name, scenario_by_name(name));
    }
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        specs.emplace_back("generated:seed=" + std::to_string(seed),
                           generate_scenario(seed));
    }
    specs.emplace_back("every option", workcell_spec_from_yaml(kEveryOptionSpec));
    for (const auto& [what, spec] : specs) {
        const ColorPickerConfig config = apply_workcell_spec(ColorPickerConfig{}, spec);
        const WorkcellSpec inverse = workcell_spec_of(config);
        EXPECT_EQ(inverse.timing_scale, 1.0) << what;
        expect_same_hardware(apply_workcell_spec(ColorPickerConfig{}, inverse), config,
                             what);
    }
}

TEST(WorkcellSpecOf, ResolvedSpecTextIsPinned) {
    // FNV-1a of the resolved-spec text cell digests hash: a changed byte
    // (a key, its order, or an integer written as a double) would make
    // --resume refuse every journal written before it.
    EXPECT_EQ(fnv1a(resolved_spec_yaml(scenario_by_name("baseline"))), 0x79cb23109f43ea61ULL);
    EXPECT_EQ(fnv1a(resolved_spec_yaml(scenario_by_name("degraded"))), 0xf678ac01d380a57dULL);
    EXPECT_EQ(fnv1a(resolved_spec_yaml(scenario_by_name("fast_lane"))), 0x80cc2b8d9fb055a0ULL);
    EXPECT_EQ(fnv1a(resolved_spec_yaml(scenario_by_name("minimal"))), 0x3a7661e9fc867752ULL);
    EXPECT_EQ(fnv1a(resolved_spec_yaml(workcell_spec_from_yaml(kEveryOptionSpec))),
              0xe69ba76d1838500dULL);
    std::string generated;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        generated += resolved_spec_yaml(generate_scenario(seed));
    }
    EXPECT_EQ(fnv1a(generated), 0xf7d6498ac53388cbULL);
}

TEST(WorkcellSpecOf, DefaultHardwareIsTheBaselineScenario) {
    // The config defaults and the registry both define "baseline".
    expect_same_hardware(ColorPickerConfig{},
                         apply_workcell_spec(ColorPickerConfig{}, scenario_by_name("baseline")),
                         "baseline");
}

TEST(GeneratedScenarios, ResolveScenarioRoutesGeneratedRefs) {
    const WorkcellSpec spec = resolve_scenario("generated:seed=7");
    EXPECT_EQ(spec.name, "gen_7");
    // The registry keeps rejecting unknown *names*, with a hint at the
    // generated grammar.
    const std::string what =
        config_error_of([] { (void)resolve_scenario("warp_core"); });
    EXPECT_NE(what.find("generated:seed="), std::string::npos) << what;
}

// --------------------------------------------------- sampled end-to-end

TEST(GeneratedScenarios, SampledSeedsRunEndToEndAcrossPlateFormats) {
    support::set_log_level(support::LogLevel::Error);
    // One representative per plate format (seeds found by scanning the
    // family: 1 -> 96-well, 3 -> 384, 25 -> 1536). Dense formats scale
    // the camera frames up, so this also covers the vision pipeline's
    // non-96-well geometry.
    struct Sample {
        std::uint64_t seed;
        int rows;
        int cols;
    };
    for (const Sample s : {Sample{1, 8, 12}, Sample{3, 16, 24}, Sample{25, 32, 48}}) {
        ColorPickerConfig config = preset_quickstart();
        config.total_samples = 4;
        config.batch_size = 4;
        config = apply_workcell_spec(std::move(config),
                                    generate_scenario(s.seed));
        ASSERT_EQ(config.plate_rows, s.rows) << s.seed;
        ASSERT_EQ(config.plate_cols, s.cols) << s.seed;
        ColorPickerApp app(std::move(config));
        const ExperimentOutcome outcome = app.run();
        EXPECT_EQ(outcome.samples.size(), 4u) << s.seed;
        EXPECT_LT(outcome.best_score, 1e300) << s.seed;
    }
}

TEST(GeneratedScenarios, DifficultyIsDeterministicPerSeed) {
    support::set_log_level(support::LogLevel::Error);
    const double first = generated_difficulty(1);
    EXPECT_GE(first, 0.0);
    EXPECT_LE(first, kUnrunnableDifficulty);
    // Memoized and stable: the report writer may score the same cell
    // many times while a campaign is resumed or re-merged.
    EXPECT_EQ(generated_difficulty(1), first);
}

// ------------------------------------------------- YAML entry points

TEST(GeneratedScenarios, ExperimentYamlAcceptsSingleSeedRefs) {
    const ColorPickerConfig config = config_from_yaml(
        "workcell:\n"
        "  scenario: generated:seed=7\n"
        "experiment:\n"
        "  total_samples: 8\n");
    EXPECT_EQ(config.workcell.scenario, "gen_7");
    EXPECT_EQ(config.total_samples, 8);
}

TEST(GeneratedScenarios, ExperimentYamlRejectsMalformedAndRangeRefs) {
    const auto config_with_scenario = [](const std::string& ref) {
        return [ref] {
            (void)config_from_yaml("workcell:\n  scenario: " + ref +
                                   "\nexperiment:\n  total_samples: 4\n");
        };
    };
    for (const std::string ref :
         {"generated:", "generated:seed=", "generated:seed=abc"}) {
        const std::string what = config_error_of(config_with_scenario(ref));
        EXPECT_NE(what.find("'" + ref + "'"), std::string::npos) << what;
    }
    // A range in an experiment file points at the campaign axis.
    const std::string range_what =
        config_error_of(config_with_scenario("generated:seed=1..3"));
    EXPECT_NE(range_what.find("workcells axis"), std::string::npos) << range_what;
}

TEST(GeneratedCampaigns, WorkcellsAxisFansOutSeedRanges) {
    const campaign::CampaignSpec spec = campaign::campaign_from_yaml(
        "campaign:\n"
        "  name: gen_fan\n"
        "grid:\n"
        "  workcells: [baseline, generated:seed=2..4]\n"
        "experiment:\n"
        "  total_samples: 4\n"
        "  batch_size: 2\n");
    EXPECT_EQ(spec.axes.workcells,
              (std::vector<std::string>{"baseline", "generated:seed=2",
                                        "generated:seed=3", "generated:seed=4"}));
    const std::vector<campaign::CampaignCell> cells = campaign::expand_grid(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_FALSE(cells[0].generated_seed.has_value());
    for (std::size_t i = 1; i < cells.size(); ++i) {
        ASSERT_TRUE(cells[i].generated_seed.has_value()) << i;
        EXPECT_EQ(*cells[i].generated_seed, i + 1);
        EXPECT_EQ(cells[i].workcell, "gen_" + std::to_string(i + 1));
        // Generated workcells appear in experiment ids like any other
        // swept scenario.
        EXPECT_NE(cells[i].config.experiment_id.find("gen_" + std::to_string(i + 1)),
                  std::string::npos);
    }
}

TEST(GeneratedCampaigns, MalformedAxisRefsFailLoudlyNamingTheToken) {
    const auto campaign_with_axis = [](const std::string& axis) {
        return [axis] {
            (void)campaign::campaign_from_yaml("campaign:\n  name: bad\ngrid:\n"
                                               "  workcells: [" +
                                               axis +
                                               "]\nexperiment:\n"
                                               "  total_samples: 4\n");
        };
    };
    for (const std::string ref :
         {"generated:", "generated:seed=", "generated:seed=1..0"}) {
        const std::string what = config_error_of(campaign_with_axis(ref));
        EXPECT_NE(what.find("'" + ref + "'"), std::string::npos) << what;
    }
}

TEST(GeneratedCampaigns, OverlappingRangesCollideInExperimentIds) {
    // Overlap fans out to duplicate refs; expand_grid's axis-uniqueness
    // check names the duplicated entry.
    campaign::CampaignSpec spec;
    spec.base.total_samples = 4;
    spec.base.batch_size = 2;
    spec.axes.workcells.clear();
    for (const std::string axis : {"generated:seed=1..3", "generated:seed=2..4"}) {
        for (const std::string& ref : expand_generated_refs(axis)) {
            spec.axes.workcells.push_back(ref);
        }
    }
    const std::string what =
        config_error_of([&] { (void)campaign::expand_grid(spec); });
    EXPECT_NE(what.find("'generated:seed=2'"), std::string::npos) << what;
    EXPECT_NE(what.find("listed twice"), std::string::npos) << what;
}
