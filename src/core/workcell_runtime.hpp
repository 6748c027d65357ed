// The simulated RPL workcell as a reusable runtime.
//
// WorkcellRuntime owns everything below the application loop: the DES
// clock, plate/location registries, the instrument simulators, fault
// injection, the transport, the workflow engine with its event log, and
// the data plane (portal + Globus flow). ColorPickerApp owns one runtime
// and runs the Figure-2 loop on it; other drivers can construct their own
// runtime and drive the engine directly.
//
// The workcell mounts the five instruments the Figure-2 workflows
// command. Its *shape* is data: config.workcell (a WorkcellTopology,
// normally produced by applying a WorkcellSpec / named scenario) decides
// which handling devices are robot-run and which are run by hand. A
// hand-run device is its own sim under its own module name, so the
// workflows run unchanged on every shape.
#pragma once

#include <memory>

#include "core/experiment_config.hpp"
#include "data/flow.hpp"
#include "data/portal.hpp"
#include "des/simulation.hpp"
#include "wei/engine.hpp"
#include "wei/event_log.hpp"
#include "wei/faults.hpp"
#include "wei/sim_transport.hpp"

namespace sdl::core {

class WorkcellRuntime {
public:
    /// Builds the full workcell for one experiment. The config is passed
    /// through finalize_config(), so validation errors throw here. The
    /// OT2, camera, fault and flow streams are seeded from config.seed, so
    /// a seed fully determines the run.
    explicit WorkcellRuntime(ColorPickerConfig config);

    WorkcellRuntime(const WorkcellRuntime&) = delete;
    WorkcellRuntime& operator=(const WorkcellRuntime&) = delete;

    /// The finalized configuration this workcell was built for.
    [[nodiscard]] const ColorPickerConfig& config() const noexcept { return config_; }

    /// Marks the runtime as driven by one experiment application. The
    /// workcell's state (DES clock, plates, reservoirs, event log,
    /// portal) is cumulative, so a second experiment on the same runtime
    /// would silently corrupt its metrics — claiming twice throws
    /// LogicError instead.
    void claim();

    // --- simulation & control plane
    [[nodiscard]] des::Simulation& sim() noexcept { return sim_; }
    [[nodiscard]] wei::PlateRegistry& plates() noexcept { return plates_; }
    [[nodiscard]] wei::LocationMap& locations() noexcept { return locations_; }
    [[nodiscard]] wei::ModuleRegistry& registry() noexcept { return registry_; }
    [[nodiscard]] wei::FaultInjector& faults() noexcept { return faults_; }
    [[nodiscard]] wei::SimTransport& transport() noexcept { return transport_; }
    [[nodiscard]] wei::WorkflowEngine& engine() noexcept { return engine_; }
    [[nodiscard]] const wei::EventLog& event_log() const noexcept { return log_; }

    // --- instruments (every module is reachable via registry())
    [[nodiscard]] devices::Ot2Sim& ot2() noexcept { return *ot2_; }
    [[nodiscard]] devices::CameraSim& camera() noexcept { return *camera_; }
    [[nodiscard]] const devices::CameraSim& camera() const noexcept { return *camera_; }

    // --- data plane
    [[nodiscard]] data::DataPortal& portal() noexcept { return portal_; }
    [[nodiscard]] const data::DataPortal& portal() const noexcept { return portal_; }
    [[nodiscard]] data::GlobusFlowSim& flow() noexcept { return flow_; }

private:
    ColorPickerConfig config_;
    des::Simulation sim_;
    wei::PlateRegistry plates_;
    wei::LocationMap locations_;
    wei::ModuleRegistry registry_;
    std::shared_ptr<devices::Ot2Sim> ot2_;
    std::shared_ptr<devices::CameraSim> camera_;
    wei::FaultInjector faults_;
    wei::SimTransport transport_;
    wei::EventLog log_;
    wei::WorkflowEngine engine_;
    data::DataPortal portal_;
    data::GlobusFlowSim flow_;
    bool claimed_ = false;
};

}  // namespace sdl::core
