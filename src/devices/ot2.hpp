// ot2 — "an automatic pipetting device that contains four separate color
// reservoirs and a set of pipette tips. Once the pf400 has delivered a
// plate to the ot2 deck, it mixes liquids in the proportions set by the
// optimization algorithm to generate new sample colors" (§2.2).
//
// The simulated chemistry: requested volumes are perturbed by pipetting
// noise (proportional CV plus an absolute floor), withdrawn from the
// reservoirs, and the resulting ground-truth color computed with the
// Beer–Lambert mixer. Reservoir underflow is a hard device failure, which
// the application resolves by scheduling barty's replenish workflow.
#pragma once

#include <array>

#include "color/mixing.hpp"
#include "des/resource.hpp"
#include "devices/timing.hpp"
#include "support/random.hpp"
#include "wei/module.hpp"
#include "wei/plate.hpp"

namespace sdl::devices {

struct Ot2Config {
    /// Reservoir capacity per dye.
    support::Volume reservoir_capacity = support::Volume::milliliters(25.0);
    /// Proportional pipetting error (coefficient of variation).
    double dispense_cv = 0.02;
    /// Absolute pipetting error floor in µL.
    double dispense_sigma_ul = 0.4;
    /// Probability that a completed protocol leaves a pipette tip clogged.
    /// A clogged OT2 rejects every further run_protocol until barty runs
    /// prime_tips — the fault *chain* generated scenarios exercise.
    /// Rolled on its own rng stream so enabling it never perturbs the
    /// dispense-noise draws.
    double clog_prob = 0.0;
    /// Per-well growth of the Beer–Lambert optical path length: dyes
    /// concentrate as solvent evaporates over a campaign, so late wells
    /// read slightly darker than the solver's model predicts.
    double dye_drift_per_well = 0.0;
    Ot2Timing timing;
};

/// One dispense order: well index plus one volume per dye (color::kCmyk
/// order).
struct DispenseOrder {
    int well = 0;
    std::array<support::Volume, color::kDyes> volumes{};
};

/// Actions:
///   run_protocol — args {protocol: "mix_colors",
///                        dispenses: [{well, volumes_ul: [c, m, y, k]}]}
///                  mixes every listed well on the plate at the deck.
class Ot2Sim final : public wei::Module {
public:
    /// `noise_seed` seeds the dispense noise and, mixed, the clog rolls.
    Ot2Sim(Ot2Config config, std::uint64_t noise_seed, wei::PlateRegistry& plates,
           wei::LocationMap& locations);

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override;
    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override;

    /// One reservoir per dye, in color::kCmyk order, named after it.
    using Reservoirs = std::array<des::Store, color::kDyes>;

    /// Reservoirs are exposed so barty (and tests) can pump them.
    [[nodiscard]] Reservoirs& reservoirs() noexcept { return reservoirs_; }
    [[nodiscard]] const Reservoirs& reservoirs() const noexcept { return reservoirs_; }

    /// True when every reservoir can cover `volumes` for all orders.
    [[nodiscard]] bool can_cover(std::span<const DispenseOrder> orders) const noexcept;

    [[nodiscard]] const color::BeerLambertMixer& mixer() const noexcept { return mixer_; }
    [[nodiscard]] std::uint64_t wells_mixed() const noexcept { return wells_mixed_; }

    /// True when a clogged tip blocks the next protocol (see clog_prob).
    [[nodiscard]] bool needs_prime() const noexcept { return needs_prime_; }
    /// Clears a clog; invoked by barty's prime_tips.
    void prime_tips() noexcept { needs_prime_ = false; }

    /// Builds the run_protocol args payload for a batch of orders.
    [[nodiscard]] static support::json::Value make_protocol_args(
        std::span<const DispenseOrder> orders);

    /// Parses the args payload back into orders (throws on malformed input).
    [[nodiscard]] static std::vector<DispenseOrder> parse_protocol_args(
        const support::json::Value& args);

private:
    Ot2Config config_;
    wei::PlateRegistry& plates_;
    wei::LocationMap& locations_;
    wei::ModuleInfo info_;
    color::BeerLambertMixer mixer_;
    Reservoirs reservoirs_;
    support::Rng rng_;
    support::Rng clog_rng_;  ///< clog chain stream, decoupled from noise
    std::uint64_t wells_mixed_ = 0;
    bool needs_prime_ = false;
};

}  // namespace sdl::devices
