// Building a workcell by hand from the WEI primitives: wire the simulated
// devices, load a workflow from YAML, and drive them with the workflow
// engine directly — the layer beneath ColorPickerApp, for users composing
// their own applications.
#include <cstdio>
#include <memory>

#include "des/simulation.hpp"
#include "devices/barty.hpp"
#include "devices/camera.hpp"
#include "devices/ot2.hpp"
#include "devices/pf400.hpp"
#include "devices/sciclops.hpp"
#include "support/log.hpp"
#include "support/units.hpp"
#include "wei/engine.hpp"
#include "wei/sim_transport.hpp"
#include "wei/workflow.hpp"

using namespace sdl;
using support::Volume;

namespace {

constexpr const char* kStageAndMixYaml = R"(name: stage_and_mix
steps:
  - name: fetch plate
    module: sciclops
    action: get_plate
  - name: fill dyes
    module: barty
    action: fill_colors
  - name: plate to deck
    module: pf400
    action: transfer
    args: {source: sciclops.exchange, target: ot2.deck}
  - name: mix one gray well
    module: ot2
    action: run_protocol
    args: {protocol: mix_colors}
  - name: plate to camera
    module: pf400
    action: transfer
    args: {source: ot2.deck, target: camera.nest}
  - name: snapshot
    module: camera
    action: take_picture
)";

}  // namespace

int main() {
    support::set_log_level(support::LogLevel::Info);

    // 1. Instantiate state and the five simulated instruments.
    des::Simulation sim;
    wei::PlateRegistry plates;
    wei::LocationMap locations;
    for (const char* loc : {wei::locations::kExchange, wei::locations::kCamera,
                            wei::locations::kOt2Deck, wei::locations::kTrash}) {
        locations.add_location(loc);
    }
    wei::ModuleRegistry registry;
    auto ot2 =
        std::make_shared<devices::Ot2Sim>(devices::Ot2Config{}, 0x07B2, plates, locations);
    registry.add(std::make_shared<devices::SciclopsSim>(devices::SciclopsConfig{}, 8, 12,
                                                        plates, locations));
    registry.add(std::make_shared<devices::Pf400Sim>(devices::Pf400Config{}, locations));
    registry.add(ot2);
    registry.add(std::make_shared<devices::BartySim>(devices::BartyConfig{}, *ot2));
    auto camera = std::make_shared<devices::CameraSim>(devices::CameraConfig{}, 0xCA3E7A,
                                                       plates, locations);
    registry.add(camera);

    // 2. Parse a workflow and parameterize its ot2 step.
    wei::Workflow workflow = wei::Workflow::from_yaml(kStageAndMixYaml);
    std::vector<devices::DispenseOrder> orders(1);
    orders[0].well = 0;
    orders[0].volumes = {Volume::microliters(20.6), Volume::microliters(17.5),
                         Volume::microliters(23.4), Volume::microliters(18.5)};
    workflow = workflow.with_step_args("mix one gray well",
                                       devices::Ot2Sim::make_protocol_args(orders));

    // 3. Run it through the engine on the DES transport.
    wei::SimTransport transport(sim, registry);
    wei::EventLog log;
    wei::WorkflowEngine engine(transport, registry, log);
    const wei::WorkflowRunStats stats = engine.run(workflow);

    std::printf("\nWorkflow '%s': %d steps in %s (simulated)\n",
                workflow.name().c_str(), stats.steps_completed,
                stats.duration.pretty().c_str());
    for (const auto& step : log.steps()) {
        std::printf("  %-18s %-10s %8.1fs -> %8.1fs  (%s)\n", step.step.c_str(),
                    step.module.c_str(), step.start.to_seconds(), step.end.to_seconds(),
                    to_string(step.status));
    }
    const auto frame_id = stats.results.back().data.at("frame_id").as_int();
    std::printf("\nCamera frame %lld captured (%dx%d). Event-log JSON:\n%s\n",
                static_cast<long long>(frame_id), camera->frame(frame_id).width(),
                camera->frame(frame_id).height(),
                log.to_json().pretty().substr(0, 600).c_str());
    return 0;
}
