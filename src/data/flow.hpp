// Simulated Globus flow: the asynchronous publication pipeline.
//
// "The publication step engages a Globus flow to publish data to the ALCF
// Community Data Co-Op (ACDC) data portal" (§2.3). A flow is a staged
// pipeline — here transfer -> ingest -> index — whose stages take time
// and run concurrently with the robots: publications scheduled on the
// shared DES complete while the workcell executes its next commands,
// without blocking the experiment loop.
#pragma once

#include <functional>
#include <vector>

#include "data/portal.hpp"
#include "des/simulation.hpp"
#include "support/random.hpp"
#include "support/units.hpp"

namespace sdl::data {

class GlobusFlowSim {
public:
    /// Borrows the simulation and the destination portal; `seed` seeds
    /// the stage jitter.
    GlobusFlowSim(des::Simulation& sim, DataPortal& portal, std::uint64_t seed);

    /// Schedules the three-stage publication of `document`; returns
    /// immediately. The document lands in the portal when the index stage
    /// completes.
    void publish(support::json::Value document);

    /// Flows started but not yet indexed.
    [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
    [[nodiscard]] std::size_t completed() const noexcept { return completed_; }

    /// Completion timestamps of every publication, in submission order of
    /// completion — the series behind the paper's "data uploads occurred
    /// on average every 3 minutes and 48 seconds".
    [[nodiscard]] const std::vector<support::TimePoint>& completion_times() const noexcept {
        return completion_times_;
    }

private:
    [[nodiscard]] support::Duration jittered(support::Duration base);

    des::Simulation& sim_;
    DataPortal& portal_;
    support::Rng rng_;
    std::size_t in_flight_ = 0;
    std::size_t completed_ = 0;
    std::vector<support::TimePoint> completion_times_;
};

}  // namespace sdl::data
