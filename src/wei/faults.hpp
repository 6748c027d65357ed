// Command-level fault injection.
//
// The paper observes that "most failures occur during reception and
// processing of commands", motivating CCWH as a resiliency metric. The
// injector models exactly that failure mode: with a configurable
// probability, a command is rejected by the device computer before the
// driver runs, costing a communication-timeout delay. Per-module rates
// allow modeling one flaky instrument among reliable ones.
#pragma once

#include <map>
#include <string>

#include "support/random.hpp"
#include "support/units.hpp"
#include "wei/action.hpp"

namespace sdl::wei {

struct FaultConfig {
    /// Probability that any command is rejected at reception.
    double command_rejection_prob = 0.0;
    /// Per-module overrides (module name -> probability).
    std::map<std::string, double> per_module;
    /// Time lost before the rejection is reported (timeout + recovery).
    support::Duration rejection_latency = support::Duration::seconds(5.0);
};

class FaultInjector {
public:
    /// `seed` seeds the rejection rolls.
    FaultInjector(FaultConfig config, std::uint64_t seed);

    /// Rolls the dice for one command.
    [[nodiscard]] bool should_reject(const ActionRequest& request);

    [[nodiscard]] support::Duration rejection_latency() const noexcept {
        return config_.rejection_latency;
    }

    [[nodiscard]] std::uint64_t rejections() const noexcept { return rejections_; }
    [[nodiscard]] std::uint64_t rolls() const noexcept { return rolls_; }

private:
    FaultConfig config_;
    support::Rng rng_;
    std::uint64_t rejections_ = 0;
    std::uint64_t rolls_ = 0;
};

}  // namespace sdl::wei
