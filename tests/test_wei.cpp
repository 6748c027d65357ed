// Tests for the WEI framework: modules, plates/locations, workflow
// notation, the DES transport, fault injection and the engine.
#include <gtest/gtest.h>

#include <memory>

#include "des/simulation.hpp"
#include "support/common.hpp"
#include "wei/engine.hpp"
#include "wei/event_log.hpp"
#include "wei/faults.hpp"
#include "wei/module.hpp"
#include "wei/plate.hpp"
#include "wei/sim_transport.hpp"
#include "wei/workflow.hpp"

using namespace sdl::wei;
using sdl::des::Simulation;
using sdl::support::Duration;
namespace json = sdl::support::json;

namespace {

/// Minimal instrument for engine/transport tests: a 10-second "work"
/// action that counts executions.
class StubDevice final : public Module {
public:
    explicit StubDevice(std::string name, bool robotic = true) {
        info_ = ModuleInfo{std::move(name), robotic};
    }
    [[nodiscard]] const ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] Duration estimate(const ActionRequest&) const override {
        return Duration::seconds(10.0);
    }
    [[nodiscard]] ActionResult execute(const ActionRequest& request) override {
        ++executions;
        if (fail_next) {
            fail_next = false;
            return ActionResult::failure("stub: simulated device failure");
        }
        json::Value data = json::Value::object();
        data.set("echo", request.args.get_or("payload", std::string("")));
        return ActionResult::success(std::move(data));
    }

    int executions = 0;
    bool fail_next = false;

private:
    ModuleInfo info_;
};

Workflow two_step_workflow() {
    return Workflow("wf_test", {
                                   {"first", "dev_a", "work", json::Value::object()},
                                   {"second", "dev_b", "work", json::Value::object()},
                               });
}

}  // namespace

// --------------------------------------------------------------- registry

TEST(ModuleRegistry, AddAndLookup) {
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    EXPECT_TRUE(registry.contains("dev_a"));
    EXPECT_EQ(registry.get("dev_a").info().name, "dev_a");
    EXPECT_THROW((void)registry.get("missing"), sdl::support::ConfigError);
    EXPECT_THROW(registry.add(std::make_shared<StubDevice>("dev_a")),
                 sdl::support::ConfigError);
}

// ------------------------------------------------------------ plate state

TEST(Plate, FillAndQueryWells) {
    Plate plate(1, 8, 12);
    EXPECT_EQ(plate.capacity(), 96);
    EXPECT_EQ(plate.next_free_well(), 0);
    WellContent content;
    content.true_color = {120, 120, 120};
    plate.fill(0, content);
    EXPECT_TRUE(plate.is_filled(0));
    EXPECT_EQ(plate.next_free_well(), 1);
    EXPECT_EQ(plate.filled_count(), 1);
    EXPECT_EQ(plate.content(0).true_color, (sdl::color::Rgb8{120, 120, 120}));
    EXPECT_THROW(plate.fill(0, content), sdl::support::LogicError);  // double fill
    EXPECT_THROW((void)plate.content(5), sdl::support::LogicError);  // empty read
    EXPECT_THROW((void)plate.is_filled(96), sdl::support::LogicError);
}

TEST(Plate, FullDetection) {
    Plate plate(1, 2, 3);
    WellContent content;
    for (int i = 0; i < 6; ++i) {
        EXPECT_FALSE(plate.full());
        plate.fill(i, content);
    }
    EXPECT_TRUE(plate.full());
    EXPECT_EQ(plate.next_free_well(), std::nullopt);
}

TEST(PlateRegistry, CreatesDistinctPlates) {
    PlateRegistry registry;
    const PlateId a = registry.create(8, 12);
    const PlateId b = registry.create(8, 12);
    EXPECT_NE(a, b);
    EXPECT_EQ(registry.count(), 2u);
    EXPECT_THROW((void)registry.get(999), sdl::support::Error);
}

TEST(LocationMap, PlaceTakeSemantics) {
    LocationMap map;
    map.add_location("a");
    map.add_location("b");
    EXPECT_EQ(map.peek("a"), std::nullopt);
    map.place("a", 7);
    EXPECT_EQ(map.peek("a"), 7);
    EXPECT_THROW(map.place("a", 8), sdl::support::Error);  // occupied
    EXPECT_EQ(map.take("a"), 7);
    EXPECT_THROW((void)map.take("a"), sdl::support::Error);  // empty
    EXPECT_THROW((void)map.peek("zz"), sdl::support::Error);  // unknown
    EXPECT_THROW(map.add_location("a"), sdl::support::ConfigError);
}

TEST(LocationMap, TrashSwallowsPlates) {
    LocationMap map;
    map.add_location(locations::kTrash);
    map.place(locations::kTrash, 1);
    map.place(locations::kTrash, 2);  // never occupied
    EXPECT_EQ(map.peek(locations::kTrash), std::nullopt);
}

// -------------------------------------------------------------- workflows

TEST(WorkflowDef, ParsesMixColorWorkflow) {
    const char* yaml_text = R"(name: cp_wf_mixcolor
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
)";
    const Workflow wf = Workflow::from_yaml(yaml_text);
    EXPECT_EQ(wf.name(), "cp_wf_mixcolor");
    ASSERT_EQ(wf.steps().size(), 4u);
    EXPECT_EQ(wf.steps()[0].args.at("source").as_string(), "camera.nest");
    EXPECT_EQ(wf.steps()[3].module, "camera");
}

TEST(WorkflowDef, WithStepArgsMergesOverrides) {
    const Workflow wf("wf", {{"mix", "ot2", "run_protocol",
                              json::parse(R"({"protocol":"mix_colors"})")}});
    json::Value extra = json::Value::object();
    extra.set("dispenses", json::Value::array());
    const Workflow parameterized = wf.with_step_args("mix", extra);
    EXPECT_TRUE(parameterized.steps()[0].args.contains("dispenses"));
    EXPECT_EQ(parameterized.steps()[0].args.at("protocol").as_string(), "mix_colors");
    // The original is untouched (value semantics).
    EXPECT_FALSE(wf.steps()[0].args.contains("dispenses"));
    EXPECT_THROW((void)wf.with_step_args("nope", extra), sdl::support::ConfigError);
}

TEST(WorkflowDef, DotExportContainsSteps) {
    const Workflow wf = two_step_workflow();
    const std::string dot = wf.to_dot();
    EXPECT_NE(dot.find("dev_a.work"), std::string::npos);
    EXPECT_NE(dot.find("s0 -> s1"), std::string::npos);
}

// -------------------------------------------------------------- transport

TEST(SimTransport, AdvancesVirtualTimeByEstimate) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    SimTransport transport(sim, registry);

    ActionRequest request;
    request.module = "dev_a";
    request.action = "work";
    const ActionResult result = transport.execute(request);
    EXPECT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.duration.to_seconds(), 10.0);
    EXPECT_DOUBLE_EQ(transport.now().to_seconds(), 10.0);
}

TEST(SimTransport, BackgroundEventsInterleaveWithCommands) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    SimTransport transport(sim, registry);

    // A "publication" process scheduled mid-command must fire while the
    // command is in flight.
    double publish_fired_at = -1.0;
    sim.schedule_in(Duration::seconds(4.0),
                    [&] { publish_fired_at = sim.now().to_seconds(); });

    ActionRequest request;
    request.module = "dev_a";
    request.action = "work";
    (void)transport.execute(request);
    EXPECT_DOUBLE_EQ(publish_fired_at, 4.0);
}

TEST(SimTransport, WaitAdvancesClock) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    SimTransport transport(sim, registry);
    transport.wait(Duration::seconds(30));
    EXPECT_DOUBLE_EQ(transport.now().to_seconds(), 30.0);
}

// ----------------------------------------------------------------- faults

TEST(FaultInjector, RespectsPerModuleProbabilities) {
    FaultConfig config;
    config.command_rejection_prob = 0.0;
    config.per_module["flaky"] = 1.0;
    FaultInjector faults(config, 0xFA117);
    ActionRequest flaky_request{"flaky", "work", json::Value::object(), 0};
    ActionRequest solid_request{"solid", "work", json::Value::object(), 0};
    EXPECT_TRUE(faults.should_reject(flaky_request));
    EXPECT_FALSE(faults.should_reject(solid_request));
    EXPECT_EQ(faults.rejections(), 1u);
    EXPECT_EQ(faults.rolls(), 2u);
}

TEST(FaultInjector, FrequencyMatchesProbability) {
    FaultConfig config;
    config.command_rejection_prob = 0.3;
    FaultInjector faults(config, 0xFA117);
    ActionRequest request{"dev", "work", json::Value::object(), 0};
    int rejected = 0;
    for (int i = 0; i < 10000; ++i) rejected += faults.should_reject(request);
    EXPECT_NEAR(rejected / 10000.0, 0.3, 0.03);
}

// ----------------------------------------------------------------- engine

TEST(Engine, RunsAllStepsAndLogsTimings) {
    Simulation sim;
    ModuleRegistry registry;
    auto dev_a = std::make_shared<StubDevice>("dev_a");
    auto dev_b = std::make_shared<StubDevice>("dev_b");
    registry.add(dev_a);
    registry.add(dev_b);
    SimTransport transport(sim, registry);
    EventLog log;
    WorkflowEngine engine(transport, registry, log);

    const WorkflowRunStats stats = engine.run(two_step_workflow());
    EXPECT_EQ(stats.steps_completed, 2);
    EXPECT_EQ(stats.rejections, 0);
    EXPECT_DOUBLE_EQ(stats.duration.to_seconds(), 20.0);
    EXPECT_EQ(dev_a->executions, 1);
    EXPECT_EQ(dev_b->executions, 1);

    ASSERT_EQ(log.steps().size(), 2u);
    EXPECT_DOUBLE_EQ(log.steps()[0].start.to_seconds(), 0.0);
    EXPECT_DOUBLE_EQ(log.steps()[0].end.to_seconds(), 10.0);
    EXPECT_DOUBLE_EQ(log.steps()[1].start.to_seconds(), 10.0);
    ASSERT_EQ(log.workflows().size(), 1u);
    EXPECT_TRUE(log.workflows()[0].completed);
    EXPECT_EQ(log.successful_commands(), 2u);
}

TEST(Engine, RetriesRejectedCommandsUntilSuccess) {
    Simulation sim;
    ModuleRegistry registry;
    auto dev = std::make_shared<StubDevice>("dev_a");
    registry.add(dev);
    FaultConfig fault_config;
    fault_config.command_rejection_prob = 0.5;
    FaultInjector faults(fault_config, 11);
    SimTransport transport(sim, registry, &faults);
    EventLog log;
    RetryPolicy policy;
    policy.max_attempts = 100;
    WorkflowEngine engine(transport, registry, log, policy);

    const Workflow wf("wf_flaky", {{"only", "dev_a", "work", json::Value::object()}});
    const WorkflowRunStats stats = engine.run(wf);
    EXPECT_EQ(stats.steps_completed, 1);
    EXPECT_EQ(dev->executions, 1);  // executed exactly once despite rejections
    // Every rejected attempt is logged with its own attempt number.
    EXPECT_EQ(log.steps().size(), 1u + static_cast<std::size_t>(stats.rejections));
    EXPECT_EQ(log.successful_commands(), 1u);
}

TEST(Engine, DeviceFailureAbortsWorkflow) {
    Simulation sim;
    ModuleRegistry registry;
    auto dev = std::make_shared<StubDevice>("dev_a");
    dev->fail_next = true;
    registry.add(dev);
    SimTransport transport(sim, registry);
    EventLog log;
    WorkflowEngine engine(transport, registry, log);

    const Workflow wf("wf_fail", {{"only", "dev_a", "work", json::Value::object()}});
    EXPECT_THROW(engine.run(wf), WorkflowError);
    ASSERT_EQ(log.workflows().size(), 1u);
    EXPECT_FALSE(log.workflows()[0].completed);
}

TEST(Engine, ExhaustedRetriesEscalateToHuman) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    FaultConfig fault_config;
    fault_config.per_module["dev_a"] = 0.9;
    FaultInjector faults(fault_config, 4);
    SimTransport transport(sim, registry, &faults);
    EventLog log;
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.human_rescue = true;
    WorkflowEngine engine(transport, registry, log, policy);

    const Workflow wf("wf_bad", {{"only", "dev_a", "work", json::Value::object()}});
    const WorkflowRunStats stats = engine.run(wf);  // must terminate eventually
    EXPECT_EQ(stats.steps_completed, 1);
    EXPECT_GE(stats.interventions, 1);
    EXPECT_EQ(log.interventions().size(), static_cast<std::size_t>(stats.interventions));
}

TEST(Engine, NoHumanRescueThrowsAfterMaxAttempts) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    FaultConfig fault_config;
    fault_config.per_module["dev_a"] = 1.0;  // always rejected
    FaultInjector faults(fault_config, 0xFA117);
    SimTransport transport(sim, registry, &faults);
    EventLog log;
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.human_rescue = false;
    WorkflowEngine engine(transport, registry, log, policy);

    const Workflow wf("wf_doomed", {{"only", "dev_a", "work", json::Value::object()}});
    EXPECT_THROW(engine.run(wf), WorkflowError);
    EXPECT_EQ(log.steps().size(), 3u);  // three rejected attempts logged
}

TEST(Engine, BackoffAddsWaitTimeBetweenRetries) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    FaultConfig fault_config;
    fault_config.per_module["dev_a"] = 1.0;  // always rejected
    fault_config.rejection_latency = Duration::seconds(5.0);
    FaultInjector faults(fault_config, 0xFA117);
    SimTransport transport(sim, registry, &faults);
    EventLog log;
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.human_rescue = false;
    WorkflowEngine engine(transport, registry, log, policy);

    const Workflow wf("wf_backoff", {{"only", "dev_a", "work", json::Value::object()}});
    EXPECT_THROW(engine.run(wf), WorkflowError);
    // 3 attempts x 5 s rejection latency + 3 x 2 s backoff = 21 s.
    EXPECT_DOUBLE_EQ(transport.now().to_seconds(), 21.0);
}

TEST(Engine, ResultsCollectedInStepOrder) {
    Simulation sim;
    ModuleRegistry registry;
    registry.add(std::make_shared<StubDevice>("dev_a"));
    registry.add(std::make_shared<StubDevice>("dev_b"));
    SimTransport transport(sim, registry);
    EventLog log;
    WorkflowEngine engine(transport, registry, log);

    Workflow wf("wf_payloads",
                {{"first", "dev_a", "work", json::parse(R"({"payload":"one"})")},
                 {"second", "dev_b", "work", json::parse(R"({"payload":"two"})")}});
    const WorkflowRunStats stats = engine.run(wf);
    ASSERT_EQ(stats.results.size(), 2u);
    EXPECT_EQ(stats.results[0].data.at("echo").as_string(), "one");
    EXPECT_EQ(stats.results[1].data.at("echo").as_string(), "two");
}

// -------------------------------------------------------------- event log

TEST(EventLog, ModuleBusyTimeAndBounds) {
    EventLog log;
    auto step = [](const char* module, double start, double end, ActionStatus status) {
        StepRecord r;
        r.workflow = "wf";
        r.step = "s";
        r.module = module;
        r.action = "a";
        r.start = sdl::support::TimePoint::from_seconds(start);
        r.end = sdl::support::TimePoint::from_seconds(end);
        r.status = status;
        return r;
    };
    log.record_step(step("ot2", 0, 145, ActionStatus::Succeeded));
    log.record_step(step("pf400", 145, 188, ActionStatus::Succeeded));
    log.record_step(step("pf400", 188, 193, ActionStatus::Rejected));
    log.record_step(step("pf400", 193, 236, ActionStatus::Succeeded));

    EXPECT_DOUBLE_EQ(log.module_busy_time("ot2").to_seconds(), 145.0);
    EXPECT_DOUBLE_EQ(log.module_busy_time("pf400").to_seconds(), 86.0);
    EXPECT_EQ(log.successful_commands(), 3u);
    EXPECT_DOUBLE_EQ(log.first_start().to_seconds(), 0.0);
    EXPECT_DOUBLE_EQ(log.last_end().to_seconds(), 236.0);
}

TEST(EventLog, NonRoboticStepsExcludedFromCommandCount) {
    EventLog log;
    StepRecord camera_step;
    camera_step.module = "camera";
    camera_step.robotic = false;
    camera_step.status = ActionStatus::Succeeded;
    log.record_step(camera_step);
    EXPECT_EQ(log.successful_commands(), 0u);
}

TEST(EventLog, JsonExportHasWorkflowRuns) {
    EventLog log;
    StepRecord r;
    r.workflow = "cp_wf_mixcolor";
    r.step = "mix";
    r.module = "ot2";
    r.action = "run_protocol";
    r.start = sdl::support::TimePoint::from_seconds(5);
    r.end = sdl::support::TimePoint::from_seconds(150);
    log.record_step(r);
    log.record_workflow({"cp_wf_mixcolor", sdl::support::TimePoint::from_seconds(0),
                         sdl::support::TimePoint::from_seconds(200), true});

    const json::Value doc = log.to_json();
    const json::Value& runs = doc.at("workflow_runs");
    ASSERT_EQ(runs.as_array().size(), 1u);
    EXPECT_EQ(runs.as_array()[0].at("name").as_string(), "cp_wf_mixcolor");
    const json::Value& steps = runs.as_array()[0].at("steps");
    ASSERT_EQ(steps.as_array().size(), 1u);
    EXPECT_DOUBLE_EQ(steps.as_array()[0].at("duration_s").as_double(), 145.0);
}
