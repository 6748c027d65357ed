// Tests for the simulated instruments and their integration: the paper's
// workflows executed end-to-end against the DES and threaded transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "color/rgb.hpp"
#include "des/simulation.hpp"
#include "devices/barty.hpp"
#include "devices/camera.hpp"
#include "devices/manual.hpp"
#include "devices/ot2.hpp"
#include "devices/pf400.hpp"
#include "devices/sciclops.hpp"
#include "imaging/well_reader.hpp"
#include "support/common.hpp"
#include "wei/engine.hpp"
#include "wei/sim_transport.hpp"
#include "wei/thread_transport.hpp"

using namespace sdl;
using namespace sdl::wei;
using namespace sdl::devices;
using sdl::support::Duration;
using sdl::support::Volume;
namespace json = sdl::support::json;

namespace {

/// A complete color-picker workcell in a box, wired like Figure 1.
struct TestWorkcell {
    des::Simulation sim;
    PlateRegistry plates;
    LocationMap locations;
    ModuleRegistry registry;
    std::shared_ptr<SciclopsSim> sciclops;
    std::shared_ptr<Pf400Sim> pf400;
    std::shared_ptr<Ot2Sim> ot2;
    std::shared_ptr<BartySim> barty;
    std::shared_ptr<CameraSim> camera;

    TestWorkcell() {
        locations.add_location(locations::kExchange);
        locations.add_location(locations::kCamera);
        locations.add_location(locations::kOt2Deck);
        locations.add_location(locations::kTrash);

        sciclops = std::make_shared<SciclopsSim>(SciclopsConfig{}, plates, locations);
        pf400 = std::make_shared<Pf400Sim>(Pf400Config{}, locations);
        ot2 = std::make_shared<Ot2Sim>(Ot2Config{}, plates, locations);
        barty = std::make_shared<BartySim>(BartyConfig{}, ot2->reservoirs());
        camera = std::make_shared<CameraSim>(CameraConfig{}, plates, locations);

        registry.add(sciclops);
        registry.add(pf400);
        registry.add(ot2);
        registry.add(barty);
        registry.add(camera);
    }
};

ActionRequest request_of(const std::string& module, const std::string& action,
                         json::Value args = json::Value::object()) {
    return ActionRequest{module, action, std::move(args), 0};
}

}  // namespace

// --------------------------------------------------------------- sciclops

TEST(Sciclops, DispensesPlatesUntilEmpty) {
    TestWorkcell cell;
    SciclopsConfig small;
    small.towers = 1;
    small.plates_per_tower = 2;
    SciclopsSim sciclops(small, cell.plates, cell.locations);

    auto result = sciclops.execute(request_of("sciclops", "get_plate"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.data.at("plates_remaining").as_int(), 1);
    const PlateId first = result.data.at("plate_id").as_int();
    EXPECT_EQ(cell.locations.peek(locations::kExchange), first);

    // Exchange occupied -> failure.
    result = sciclops.execute(request_of("sciclops", "get_plate"));
    EXPECT_FALSE(result.ok());

    (void)cell.locations.take(locations::kExchange);
    result = sciclops.execute(request_of("sciclops", "get_plate"));
    ASSERT_TRUE(result.ok());
    (void)cell.locations.take(locations::kExchange);

    // Towers empty -> failure.
    result = sciclops.execute(request_of("sciclops", "get_plate"));
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("empty"), std::string::npos);
}

TEST(Sciclops, StatusReportsInventory) {
    TestWorkcell cell;
    const auto result = cell.sciclops->execute(request_of("sciclops", "status"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.data.at("plates_remaining").as_int(), 80);
}

// ------------------------------------------------------------------ pf400

TEST(Pf400, TransfersPlateBetweenNests) {
    TestWorkcell cell;
    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kExchange, id);

    json::Value args = json::Value::object();
    args.set("source", locations::kExchange);
    args.set("target", locations::kCamera);
    const auto result = cell.pf400->execute(request_of("pf400", "transfer", args));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(cell.locations.peek(locations::kCamera), id);
    EXPECT_EQ(cell.locations.peek(locations::kExchange), std::nullopt);
    EXPECT_EQ(cell.pf400->transfers_completed(), 1u);
}

TEST(Pf400, FailureModes) {
    TestWorkcell cell;
    json::Value args = json::Value::object();
    args.set("source", locations::kExchange);
    args.set("target", locations::kCamera);
    // Empty source.
    EXPECT_FALSE(cell.pf400->execute(request_of("pf400", "transfer", args)).ok());
    // Occupied target.
    cell.locations.place(locations::kExchange, cell.plates.create(8, 12));
    cell.locations.place(locations::kCamera, cell.plates.create(8, 12));
    EXPECT_FALSE(cell.pf400->execute(request_of("pf400", "transfer", args)).ok());
    // Missing args.
    EXPECT_FALSE(cell.pf400->execute(request_of("pf400", "transfer")).ok());
    // Unknown action.
    EXPECT_FALSE(cell.pf400->execute(request_of("pf400", "dance")).ok());
}

TEST(Pf400, TransferToTrashDisposesPlate) {
    TestWorkcell cell;
    cell.locations.place(locations::kCamera, cell.plates.create(8, 12));
    json::Value args = json::Value::object();
    args.set("source", locations::kCamera);
    args.set("target", locations::kTrash);
    ASSERT_TRUE(cell.pf400->execute(request_of("pf400", "transfer", args)).ok());
    EXPECT_EQ(cell.locations.peek(locations::kTrash), std::nullopt);
    EXPECT_EQ(cell.locations.peek(locations::kCamera), std::nullopt);
}

// -------------------------------------------------------------------- ot2

namespace {
json::Value mix_args(std::initializer_list<std::pair<int, std::array<double, 4>>> wells) {
    std::vector<DispenseOrder> orders;
    for (const auto& [well, vols] : wells) {
        DispenseOrder order;
        order.well = well;
        for (std::size_t dye = 0; dye < 4; ++dye) {
            order.volumes[dye] = Volume::microliters(vols[dye]);
        }
        orders.push_back(order);
    }
    return Ot2Sim::make_protocol_args(orders);
}
}  // namespace

TEST(Ot2, MixesWellsAndDepletesReservoirs) {
    TestWorkcell cell;
    for (auto& reservoir : cell.ot2->reservoirs()) {
        reservoir.deposit(Volume::milliliters(25));
    }
    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kOt2Deck, id);

    const auto result = cell.ot2->execute(
        request_of("ot2", "run_protocol", mix_args({{0, {20, 20, 20, 20}},
                                                    {1, {40, 10, 10, 0}}})));
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.data.at("wells_mixed").as_int(), 2);

    const Plate& plate = cell.plates.get(id);
    EXPECT_TRUE(plate.is_filled(0));
    EXPECT_TRUE(plate.is_filled(1));
    EXPECT_FALSE(plate.is_filled(2));
    // Dispensed volumes are noisy but near the request.
    EXPECT_NEAR(plate.content(0).volumes[0].to_microliters(), 20.0, 5.0);
    // Reservoir levels dropped by roughly the requested totals.
    EXPECT_NEAR(cell.ot2->reservoirs()[0].level().to_milliliters(), 25.0 - 0.060, 0.01);
    EXPECT_EQ(cell.ot2->wells_mixed(), 2u);
}

TEST(Ot2, EqualVolumesOfGrayRecipeGiveGrayishColor) {
    TestWorkcell cell;
    for (auto& reservoir : cell.ot2->reservoirs()) {
        reservoir.deposit(Volume::milliliters(25));
    }
    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kOt2Deck, id);

    // The analytically exact recipe for RGB(120,120,120).
    const auto ratios = cell.ot2->mixer().invert_target({120, 120, 120});
    ASSERT_TRUE(ratios.has_value());
    std::array<double, 4> vols{};
    for (std::size_t dye = 0; dye < 4; ++dye) vols[dye] = 100.0 * (*ratios)[dye];
    ASSERT_TRUE(cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{0, vols}})))
                    .ok());
    const color::Rgb8 mixed = cell.plates.get(id).content(0).true_color;
    // Pipetting noise shifts the color slightly off perfect gray.
    EXPECT_LT(color::rgb_distance(mixed, {120, 120, 120}), 12.0);
}

TEST(Ot2, FailsWithoutPlate) {
    TestWorkcell cell;
    for (auto& reservoir : cell.ot2->reservoirs()) {
        reservoir.deposit(Volume::milliliters(25));
    }
    const auto result =
        cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{0, {10, 10, 10, 10}}})));
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("no plate"), std::string::npos);
}

TEST(Ot2, FailsOnEmptyReservoirsAndLeavesStateUntouched) {
    TestWorkcell cell;  // reservoirs start empty
    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kOt2Deck, id);
    const auto result =
        cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{0, {10, 10, 10, 10}}})));
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("refill"), std::string::npos);
    EXPECT_FALSE(cell.plates.get(id).is_filled(0));
}

TEST(Ot2, RejectsDoubleFillAndBadWells) {
    TestWorkcell cell;
    for (auto& reservoir : cell.ot2->reservoirs()) {
        reservoir.deposit(Volume::milliliters(25));
    }
    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kOt2Deck, id);
    ASSERT_TRUE(
        cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{0, {10, 10, 10, 10}}})))
            .ok());
    EXPECT_FALSE(
        cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{0, {10, 10, 10, 10}}})))
            .ok());
    EXPECT_FALSE(
        cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{96, {10, 10, 10, 10}}})))
            .ok());
    EXPECT_FALSE(cell.ot2->execute(request_of("ot2", "run_protocol")).ok());
}

TEST(Ot2, EstimateScalesWithBatchSize) {
    TestWorkcell cell;
    const Ot2Timing timing;  // defaults
    const auto args1 = mix_args({{0, {10, 10, 10, 10}}});
    json::Value args8 = json::Value::object();
    {
        std::vector<DispenseOrder> orders;
        for (int i = 0; i < 8; ++i) {
            DispenseOrder order;
            order.well = i;
            order.volumes.fill(Volume::microliters(10));
            orders.push_back(order);
        }
        args8 = Ot2Sim::make_protocol_args(orders);
    }
    const Duration d1 = cell.ot2->estimate(request_of("ot2", "run_protocol", args1));
    const Duration d8 = cell.ot2->estimate(request_of("ot2", "run_protocol", args8));
    EXPECT_DOUBLE_EQ(d1.to_seconds(),
                     timing.protocol_overhead.to_seconds() + timing.per_well.to_seconds());
    EXPECT_DOUBLE_EQ(d8.to_seconds(), timing.protocol_overhead.to_seconds() +
                                          8 * timing.per_well.to_seconds());
}

TEST(Ot2, ProtocolArgsRoundTrip) {
    std::vector<DispenseOrder> orders(3);
    for (int i = 0; i < 3; ++i) {
        orders[static_cast<std::size_t>(i)].well = i * 7;
        for (std::size_t dye = 0; dye < 4; ++dye) {
            orders[static_cast<std::size_t>(i)].volumes[dye] =
                Volume::microliters(10.0 * static_cast<double>(i + 1) + static_cast<double>(dye));
        }
    }
    const json::Value args = Ot2Sim::make_protocol_args(orders);
    const auto back = Ot2Sim::parse_protocol_args(args);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[2].well, 14);
    EXPECT_DOUBLE_EQ(back[1].volumes[3].to_microliters(), 23.0);
}

// ------------------------------------------------------------------ barty

TEST(Barty, FillDrainRefillCycle) {
    TestWorkcell cell;
    ASSERT_TRUE(cell.barty->execute(request_of("barty", "fill_colors")).ok());
    for (const auto& reservoir : cell.ot2->reservoirs()) {
        EXPECT_DOUBLE_EQ(reservoir.fill_fraction(), 1.0);
    }
    ASSERT_TRUE(cell.barty->execute(request_of("barty", "drain_colors")).ok());
    for (const auto& reservoir : cell.ot2->reservoirs()) {
        EXPECT_DOUBLE_EQ(reservoir.level().to_microliters(), 0.0);
    }
    ASSERT_TRUE(cell.barty->execute(request_of("barty", "refill_colors")).ok());
    for (const auto& reservoir : cell.ot2->reservoirs()) {
        EXPECT_DOUBLE_EQ(reservoir.fill_fraction(), 1.0);
    }
    // Bulk decreased by two full fills.
    EXPECT_NEAR(cell.barty->bulk_remaining(0).to_milliliters(), 500.0 - 50.0, 1e-9);
}

TEST(Barty, BulkExhaustionFails) {
    TestWorkcell cell;
    BartyConfig tiny;
    tiny.bulk_capacity = Volume::milliliters(30);  // one fill + a bit
    BartySim barty(tiny, cell.ot2->reservoirs());
    ASSERT_TRUE(barty.execute(request_of("barty", "fill_colors")).ok());
    ASSERT_TRUE(barty.execute(request_of("barty", "drain_colors")).ok());
    const auto result = barty.execute(request_of("barty", "fill_colors"));
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("exhausted"), std::string::npos);
}

// ----------------------------------------------- clogged-tip fault chain

namespace {

/// Fresh OT2 with a filled plate on its deck and full reservoirs, ready
/// to run protocols back to back (clog-chain tests re-run many).
struct ClogBench {
    TestWorkcell cell;
    std::shared_ptr<Ot2Sim> ot2;
    PlateId plate = 0;

    explicit ClogBench(double clog_prob, std::uint64_t noise_seed = 0x07B2) {
        Ot2Config config;
        config.clog_prob = clog_prob;
        config.noise_seed = noise_seed;
        ot2 = std::make_shared<Ot2Sim>(config, cell.plates, cell.locations);
        for (auto& reservoir : ot2->reservoirs()) {
            reservoir.deposit(Volume::milliliters(200));
        }
        plate = cell.plates.create(8, 12);
        cell.locations.place(locations::kOt2Deck, plate);
    }

    wei::ActionResult mix(int well) {
        return ot2->execute(request_of("ot2", "run_protocol",
                                       mix_args({{well, {20, 20, 20, 20}}})));
    }
};

}  // namespace

TEST(Ot2, CloggedTipBlocksProtocolsUntilPrimed) {
    ClogBench bench(1.0);  // every protocol leaves a clog
    ASSERT_TRUE(bench.mix(0).ok());
    EXPECT_TRUE(bench.ot2->needs_prime());

    // The chain: the *next* protocol is rejected until prime_tips runs.
    const auto blocked = bench.mix(1);
    EXPECT_FALSE(blocked.ok());
    EXPECT_NE(blocked.error.find("clogged"), std::string::npos);
    EXPECT_NE(blocked.error.find("prime_tips"), std::string::npos);
    EXPECT_FALSE(bench.cell.plates.get(bench.plate).is_filled(1));

    bench.ot2->prime_tips();
    EXPECT_FALSE(bench.ot2->needs_prime());
    ASSERT_TRUE(bench.mix(1).ok());
    // ...and pipetting again re-latches it at clog_prob = 1.
    EXPECT_TRUE(bench.ot2->needs_prime());
}

TEST(Ot2, ClogChainIsSeedDeterministic) {
    // Same noise_seed => the same protocols clog, run for run.
    const auto chain_of = [](std::uint64_t seed) {
        ClogBench bench(0.35, seed);
        std::vector<bool> clogged;
        for (int well = 0; well < 24; ++well) {
            if (bench.ot2->needs_prime()) bench.ot2->prime_tips();
            EXPECT_TRUE(bench.mix(well).ok());
            clogged.push_back(bench.ot2->needs_prime());
        }
        return clogged;
    };
    const std::vector<bool> first = chain_of(0xC10C);
    EXPECT_EQ(first, chain_of(0xC10C));
    // The chain actually fires and actually spares at this rate.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
    // A different seed draws a different chain.
    EXPECT_NE(first, chain_of(0xFACE));
}

TEST(Ot2, ClogChainLeavesDispenseNoiseUntouched) {
    // The chain rolls on a dedicated rng stream: enabling it must not
    // shift the dispense-noise draws, or clog_prob would change every
    // measured color in a generated scenario.
    ClogBench with(1.0);
    ClogBench without(0.0);
    ASSERT_TRUE(with.mix(0).ok());
    ASSERT_TRUE(without.mix(0).ok());
    const auto& with_content = with.cell.plates.get(with.plate).content(0);
    const auto& without_content = without.cell.plates.get(without.plate).content(0);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(with_content.volumes[i].to_microliters(),
                         without_content.volumes[i].to_microliters());
    }
}

TEST(Barty, PrimeTipsClearsClogThroughTheHook) {
    ClogBench bench(1.0);
    BartySim barty(BartyConfig{}, bench.ot2->reservoirs());
    barty.set_prime_hook([&] { bench.ot2->prime_tips(); });

    ASSERT_TRUE(bench.mix(0).ok());
    ASSERT_TRUE(bench.ot2->needs_prime());
    ASSERT_TRUE(barty.execute(request_of("barty", "prime_tips")).ok());
    EXPECT_FALSE(bench.ot2->needs_prime());

    // Priming is real robotic work: it takes barty's prime time and,
    // being robotic, counts toward commands-completed-without-humans.
    EXPECT_GT(barty.estimate(request_of("barty", "prime_tips")).to_seconds(), 0.0);
    EXPECT_TRUE(barty.info().robotic);
}

TEST(Manual, BartyStandInPrimesButIsExcludedFromCcwh) {
    ClogBench bench(1.0);
    ManualConfig config;
    config.stand_in_for = "barty";
    ManualOperatorSim manual(config, bench.cell.plates, bench.cell.locations,
                             &bench.ot2->reservoirs());
    manual.set_prime_hook([&] { bench.ot2->prime_tips(); });

    ASSERT_TRUE(bench.mix(0).ok());
    ASSERT_TRUE(bench.ot2->needs_prime());
    ASSERT_TRUE(manual.execute(request_of("barty", "prime_tips")).ok());
    EXPECT_FALSE(bench.ot2->needs_prime());
    // A human back-flushing tips is an intervention, not autonomous
    // throughput: the stand-in is non-robotic, so CCWH excludes it.
    EXPECT_FALSE(manual.info().robotic);
}

// ----------------------------------------------------------------- camera

TEST(Camera, CapturesFrameOfPlateOnNest) {
    TestWorkcell cell;
    for (auto& reservoir : cell.ot2->reservoirs()) {
        reservoir.deposit(Volume::milliliters(25));
    }
    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kOt2Deck, id);
    ASSERT_TRUE(
        cell.ot2->execute(request_of("ot2", "run_protocol", mix_args({{0, {30, 20, 10, 5}}})))
            .ok());
    (void)cell.locations.take(locations::kOt2Deck);
    cell.locations.place(locations::kCamera, id);

    const auto result = cell.camera->execute(request_of("camera", "take_picture"));
    ASSERT_TRUE(result.ok());
    const std::int64_t frame_id = result.data.at("frame_id").as_int();
    EXPECT_EQ(result.data.at("wells_filled").as_int(), 1);

    const imaging::Image& frame = cell.camera->frame(frame_id);
    EXPECT_EQ(frame.width(), cell.camera->scene().width);

    // The frame must be readable by the vision pipeline.
    imaging::WellReadParams params;
    params.geometry = cell.camera->scene().geometry;
    const imaging::WellReadout readout = imaging::read_plate(frame, params);
    ASSERT_TRUE(readout.ok) << readout.error;
    const color::Rgb8 truth = cell.plates.get(id).content(0).true_color;
    EXPECT_LT(color::rgb_distance(readout.colors[0], truth), 25.0);
}

TEST(Camera, FailsWithEmptyNest) {
    TestWorkcell cell;
    EXPECT_FALSE(cell.camera->execute(request_of("camera", "take_picture")).ok());
}

TEST(Camera, EvictsOldFrames) {
    TestWorkcell cell;
    CameraConfig config;
    config.max_frames = 2;
    CameraSim camera(config, cell.plates, cell.locations);
    cell.locations.place(locations::kCamera, cell.plates.create(8, 12));
    std::int64_t first_id = 0;
    for (int i = 0; i < 3; ++i) {
        const auto result = camera.execute(request_of("camera", "take_picture"));
        ASSERT_TRUE(result.ok());
        if (i == 0) first_id = result.data.at("frame_id").as_int();
    }
    EXPECT_THROW((void)camera.frame(first_id), sdl::support::Error);
    EXPECT_EQ(camera.frames_captured(), 3);
}

TEST(Camera, GlitchedFrameHasNoDetectableMarker) {
    TestWorkcell cell;
    CameraConfig config;
    config.glitch_prob = 1.0;  // always glitched
    CameraSim camera(config, cell.plates, cell.locations);
    cell.locations.place(locations::kCamera, cell.plates.create(8, 12));
    const auto result = camera.execute(request_of("camera", "take_picture"));
    ASSERT_TRUE(result.ok());  // the capture itself succeeds
    EXPECT_TRUE(result.data.at("glitched").as_bool());
    const auto& frame = camera.frame(result.data.at("frame_id").as_int());
    EXPECT_TRUE(imaging::detect_markers(frame, imaging::MarkerDictionary::standard())
                    .empty());
}

TEST(Camera, BaseRasterCacheFramesByteIdentical) {
    // The PlateRenderer base cache is a pure perf optimization: every
    // archived frame must equal a one-shot render_plate of the same scene
    // drawn from a twin generator that makes the same glitch roll and
    // key draw, across captures with changing well contents and
    // interleaved glitches (which bypass the cache).
    TestWorkcell cell;
    CameraConfig config;
    config.glitch_prob = 0.25;
    config.max_frames = 64;
    CameraSim camera(config, cell.plates, cell.locations);
    support::Rng twin(config.noise_seed);

    const PlateId id = cell.plates.create(8, 12);
    cell.locations.place(locations::kCamera, id);
    Plate& plate = cell.plates.get(id);
    std::vector<color::Rgb8> colors(96, color::Rgb8{0, 0, 0});
    std::vector<bool> filled(96, false);
    int glitches = 0;
    for (int i = 0; i < 12; ++i) {
        WellContent content;
        content.true_color = {static_cast<std::uint8_t>(20 * i), 120, 90};
        plate.fill(i * 7, content);
        colors[static_cast<std::size_t>(i * 7)] = content.true_color;
        filled[static_cast<std::size_t>(i * 7)] = true;
        const auto result = camera.execute(request_of("camera", "take_picture"));
        ASSERT_TRUE(result.ok());

        imaging::PlateScene scene = imaging::scene_for_plate(config.scene, 8, 12);
        const bool glitched = twin.bernoulli(config.glitch_prob);
        if (glitched) scene.marker_center = {-10000.0, -10000.0};
        glitches += glitched ? 1 : 0;
        const imaging::Image want = imaging::render_plate(scene, colors, twin, &filled);

        EXPECT_EQ(result.data.at("glitched").as_bool(), glitched) << "capture " << i;
        const auto got = camera.frame(result.data.at("frame_id").as_int()).bytes();
        const auto expected = want.bytes();
        ASSERT_EQ(got.size(), expected.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
            << "capture " << i;
    }
    // The seed must exercise both paths for the comparison to mean anything.
    EXPECT_GT(glitches, 0);
    EXPECT_LT(glitches, 12);
}

TEST(Camera, IsNotARoboticModule) {
    TestWorkcell cell;
    EXPECT_FALSE(cell.camera->info().robotic);
    EXPECT_TRUE(cell.pf400->info().robotic);
}

// ------------------------------------------------- workflow integration

namespace {

Workflow wf_newplate() {
    return Workflow::from_yaml(R"(name: cp_wf_newplate
steps:
  - name: get plate
    module: sciclops
    action: get_plate
  - name: stage plate
    module: pf400
    action: transfer
    args: {source: sciclops.exchange, target: camera.nest}
  - name: fill reservoirs
    module: barty
    action: fill_colors
)");
}

Workflow wf_mixcolor() {
    return Workflow::from_yaml(R"(name: cp_wf_mixcolor
steps:
  - name: plate to ot2
    module: pf400
    action: transfer
    args: {source: camera.nest, target: ot2.deck}
  - name: mix colors
    module: ot2
    action: run_protocol
    args: {protocol: mix_colors}
  - name: plate to camera
    module: pf400
    action: transfer
    args: {source: ot2.deck, target: camera.nest}
  - name: photograph
    module: camera
    action: take_picture
)");
}

}  // namespace

TEST(Integration, PaperWorkflowsRunOnSimTransport) {
    TestWorkcell cell;
    SimTransport transport(cell.sim, cell.registry);
    EventLog log;
    WorkflowEngine engine(transport, cell.registry, log);

    (void)engine.run(wf_newplate());

    std::vector<DispenseOrder> orders(1);
    orders[0].well = 0;
    orders[0].volumes.fill(Volume::microliters(25));
    const Workflow mix =
        wf_mixcolor().with_step_args("mix colors", Ot2Sim::make_protocol_args(orders));
    (void)engine.run(mix);

    // Timing: newplate = 20 + 42.65 + 45 = 107.65 s;
    // mixcolor = 42.65 + (110.3 + 35) + 42.65 + 1.5 = 232.1 s.
    EXPECT_NEAR(transport.now().to_seconds(), 107.65 + 232.1, 1e-9);
    // CCWH so far: 3 (newplate) + 3 (mixcolor, camera not robotic).
    EXPECT_EQ(log.successful_commands(), 6u);
    // Synthesis vs transfer attribution.
    EXPECT_NEAR(log.module_busy_time("ot2").to_seconds(), 145.3, 1e-9);
    EXPECT_NEAR(log.module_busy_time("pf400").to_seconds(), 3 * 42.65, 1e-9);

    // The plate is back at the camera with one mixed well.
    const auto plate_id = cell.locations.peek(locations::kCamera);
    ASSERT_TRUE(plate_id.has_value());
    EXPECT_EQ(cell.plates.get(*plate_id).filled_count(), 1);
}

TEST(Integration, PaperWorkflowsRunOnThreadTransport) {
    TestWorkcell cell;
    ThreadTransport transport(cell.registry, 1e-6);
    EventLog log;
    WorkflowEngine engine(transport, cell.registry, log);

    (void)engine.run(wf_newplate());
    std::vector<DispenseOrder> orders(1);
    orders[0].well = 0;
    orders[0].volumes.fill(Volume::microliters(25));
    (void)engine.run(
        wf_mixcolor().with_step_args("mix colors", Ot2Sim::make_protocol_args(orders)));

    EXPECT_EQ(log.successful_commands(), 6u);
    EXPECT_NEAR(transport.now().to_seconds(), 107.65 + 232.1, 1e-6);
}
