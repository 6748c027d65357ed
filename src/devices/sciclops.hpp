// sciclops — "the Hudson SciClops Microplate Handler, a microplate
// storage and staging system that can access multiple storage towers,
// facilitating the housing of plates" (§2.2).
//
// Simulated behaviour: dispenses fresh plates from its towers onto the
// exchange nest, where the pf400 picks them up.
#pragma once

#include "devices/timing.hpp"
#include "wei/module.hpp"
#include "wei/plate.hpp"

namespace sdl::devices {

struct SciclopsConfig {
    int towers = 4;
    int plates_per_tower = 20;
    SciclopsTiming timing;
};

/// Actions:
///   get_plate  — take a plate from a tower, place it on sciclops.exchange
class SciclopsSim final : public wei::Module {
public:
    /// Stocks its towers with plate_rows x plate_cols plates (the
    /// experiment's plate format).
    SciclopsSim(SciclopsConfig config, int plate_rows, int plate_cols,
                wei::PlateRegistry& plates, wei::LocationMap& locations);

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override;
    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override;

    [[nodiscard]] int plates_remaining() const noexcept { return plates_remaining_; }

private:
    SciclopsConfig config_;
    int plate_rows_;
    int plate_cols_;
    wei::PlateRegistry& plates_;
    wei::LocationMap& locations_;
    wei::ModuleInfo info_;
    int plates_remaining_;
};

}  // namespace sdl::devices
