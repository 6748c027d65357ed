#include "core/workcell_runtime.hpp"

#include <limits>

#include "support/common.hpp"

namespace sdl::core {

namespace {

/// A handling device the workcell does without, run by hand: the device's
/// own sim answers under its own module name, so the Figure-2 workflows
/// resolve unchanged, but every action takes the operator's handling time
/// and none is robotic (CCWH counts commands completed without humans).
class HandRun final : public wei::Module {
public:
    HandRun(std::shared_ptr<wei::Module> device, support::Duration handling)
        : device_(std::move(device)),
          info_{device_->info().name, /*robotic=*/false},
          handling_(handling) {}

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override { return info_; }
    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override {
        (void)request;
        return handling_;
    }
    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override {
        return device_->execute(request);
    }

private:
    std::shared_ptr<wei::Module> device_;
    wei::ModuleInfo info_;
    support::Duration handling_;
};

}  // namespace

void WorkcellRuntime::claim() {
    support::check(!claimed_,
                   "WorkcellRuntime already drives an experiment; construct a fresh "
                   "runtime per experiment");
    claimed_ = true;
}

WorkcellRuntime::WorkcellRuntime(ColorPickerConfig config)
    : config_(finalize_config(std::move(config))),
      faults_(config_.faults, config_.seed * 0xC2B2AE35ULL + 0xFA11),
      transport_(sim_, registry_, &faults_),
      log_(),
      engine_(transport_, registry_, log_, config_.retry),
      flow_(sim_, portal_, config_.seed * 0x27D4EB2FULL + 0x910B) {
    const WorkcellTopology& topology = config_.workcell;

    locations_.add_location(wei::locations::kExchange);
    locations_.add_location(wei::locations::kCamera);
    locations_.add_location(wei::locations::kTrash);
    locations_.add_location(wei::locations::kOt2Deck);

    ot2_ = std::make_shared<devices::Ot2Sim>(config_.ot2, config_.seed * 0x9E3779B9ULL + 0x07B2,
                                             plates_, locations_);
    registry_.add(ot2_);
    camera_ = std::make_shared<devices::CameraSim>(
        config_.camera, config_.seed * 0x85EBCA6BULL + 0xCA3E, plates_, locations_);
    registry_.add(camera_);

    // Handling devices, each robot-run or run by hand. A hand-run device's
    // stock never runs out: the operator fetches more plates and pours
    // more dye.
    const auto mount = [&](std::shared_ptr<wei::Module> device, bool robotic) {
        if (!robotic) {
            device = std::make_shared<HandRun>(std::move(device), topology.manual_handling);
        }
        registry_.add(std::move(device));
    };
    devices::SciclopsConfig sciclops = config_.sciclops;
    if (!topology.has_sciclops) {
        sciclops.towers = 1;
        sciclops.plates_per_tower = std::numeric_limits<int>::max();
    }
    mount(std::make_shared<devices::SciclopsSim>(sciclops, config_.plate_rows,
                                                 config_.plate_cols, plates_, locations_),
          topology.has_sciclops);
    mount(std::make_shared<devices::Pf400Sim>(config_.pf400, locations_), topology.has_pf400);
    devices::BartyConfig barty = config_.barty;
    if (!topology.has_barty) {
        barty.bulk_capacity =
            support::Volume::microliters(std::numeric_limits<double>::infinity());
    }
    mount(std::make_shared<devices::BartySim>(barty, *ot2_), topology.has_barty);
}

}  // namespace sdl::core
