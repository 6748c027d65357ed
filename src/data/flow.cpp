#include "data/flow.hpp"

#include <memory>

namespace sdl::data {

namespace {

constexpr support::Duration kTransferLatency = support::Duration::seconds(4.0);
constexpr support::Duration kIngestLatency = support::Duration::seconds(2.5);
constexpr support::Duration kIndexLatency = support::Duration::seconds(1.5);
/// Multiplicative jitter on each stage, uniform in [1-j, 1+j].
constexpr double kJitter = 0.3;

}  // namespace

GlobusFlowSim::GlobusFlowSim(des::Simulation& sim, DataPortal& portal, std::uint64_t seed)
    : sim_(sim), portal_(portal), rng_(seed) {}

support::Duration GlobusFlowSim::jittered(support::Duration base) {
    const double factor = rng_.uniform(1.0 - kJitter, 1.0 + kJitter);
    return base * factor;
}

void GlobusFlowSim::publish(support::json::Value document) {
    ++in_flight_;
    // Draw all stage durations up front so the flow is deterministic
    // regardless of what else interleaves on the simulation.
    const support::Duration transfer = jittered(kTransferLatency);
    const support::Duration ingest = jittered(kIngestLatency);
    const support::Duration index = jittered(kIndexLatency);

    auto doc = std::make_shared<support::json::Value>(std::move(document));
    sim_.schedule_in(transfer, [this, doc, ingest, index] {
        // transfer done -> ingest
        sim_.schedule_in(ingest, [this, doc, index] {
            // ingest done -> index
            sim_.schedule_in(index, [this, doc] {
                portal_.ingest(std::move(*doc));
                --in_flight_;
                ++completed_;
                completion_times_.push_back(sim_.now());
            });
        });
    });
}

}  // namespace sdl::data
