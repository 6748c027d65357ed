// barty — "a robot developed in RPL with four peristaltic pumps that
// transfer liquid from large storage vessels to the reservoirs of the
// ot2. Our application instructs barty to refill the ot2 reservoirs
// periodically so that experiments can run for extended periods" (§2.2).
#pragma once

#include <array>

#include "des/resource.hpp"
#include "devices/ot2.hpp"
#include "devices/timing.hpp"
#include "wei/module.hpp"

namespace sdl::devices {

struct BartyConfig {
    /// Bulk storage per dye (the "large storage vessels").
    support::Volume bulk_capacity = support::Volume::milliliters(500.0);
    BartyTiming timing;
};

/// Actions:
///   fill_colors    — pump every ot2 reservoir to capacity
///   drain_colors   — empty every ot2 reservoir
///   refill_colors  — drain then fill (fresh dye, no cross-contamination)
///   prime_tips     — back-flush the OT2 pipette tips (clears a clog)
class BartySim final : public wei::Module {
public:
    /// Barty serves `ot2`: it pumps that OT2's reservoirs and primes its
    /// tips. Both must outlive barty.
    BartySim(BartyConfig config, Ot2Sim& ot2);

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override;
    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override;

    [[nodiscard]] support::Volume bulk_remaining(std::size_t dye) const {
        return bulk_remaining_.at(dye);
    }

private:
    wei::ActionResult fill();
    wei::ActionResult drain();

    BartyConfig config_;
    Ot2Sim& ot2_;
    std::array<support::Volume, 4> bulk_remaining_;
    wei::ModuleInfo info_;
};

}  // namespace sdl::devices
