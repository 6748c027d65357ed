#include "core/workcell_runtime.hpp"

#include "devices/manual.hpp"
#include "support/common.hpp"

namespace sdl::core {

void WorkcellRuntime::claim() {
    support::check(!claimed_,
                   "WorkcellRuntime already drives an experiment; construct a fresh "
                   "runtime per experiment");
    claimed_ = true;
}

WorkcellRuntime::WorkcellRuntime(ColorPickerConfig config)
    : config_(finalize_config(std::move(config))),
      faults_(config_.faults),
      transport_(sim_, registry_, &faults_),
      log_(),
      engine_(transport_, registry_, log_, config_.retry),
      flow_(sim_, portal_, config_.flow) {
    const WorkcellTopology& topology = config_.workcell;

    locations_.add_location(wei::locations::kExchange);
    locations_.add_location(wei::locations::kCamera);
    locations_.add_location(wei::locations::kTrash);

    // Liquid handlers: the primary "ot2" on the canonical deck, extras
    // ("ot2_2", ...) on their own decks with derived noise streams.
    for (int i = 0; i < topology.ot2_count; ++i) {
        devices::Ot2Config ot2_config = config_.ot2;
        if (i > 0) {
            ot2_config.name = "ot2_" + std::to_string(i + 1);
            ot2_config.deck_location = ot2_config.name + ".deck";
            ot2_config.noise_seed = config_.ot2.noise_seed +
                                    0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i);
        }
        locations_.add_location(ot2_config.deck_location);
        ot2s_.push_back(
            std::make_shared<devices::Ot2Sim>(ot2_config, plates_, locations_));
        registry_.add(ot2s_.back());
    }
    camera_ = std::make_shared<devices::CameraSim>(config_.camera, plates_, locations_);
    registry_.add(camera_);

    // Handling devices: real instruments, or manual human stand-ins
    // registered under the same module names so the Figure-2 workflows
    // resolve their steps unchanged.
    const auto add_manual = [&](const char* stand_in_for,
                                std::array<des::Store, 4>* reservoirs) {
        devices::ManualConfig manual;
        manual.stand_in_for = stand_in_for;
        manual.handling = topology.manual_handling;
        manual.plate_rows = config_.plate_rows;
        manual.plate_cols = config_.plate_cols;
        auto sim = std::make_shared<devices::ManualOperatorSim>(manual, plates_,
                                                                locations_, reservoirs);
        registry_.add(sim);
        return sim;
    };
    // prime_tips (real barty or the human stand-in) clears the clogged-tip
    // latch on every mounted liquid handler.
    const auto prime_all_ot2s = [this] {
        for (const auto& ot2 : ot2s_) ot2->prime_tips();
    };
    if (topology.has_sciclops) {
        sciclops_ = std::make_shared<devices::SciclopsSim>(config_.sciclops,
                                                           config_.plate_rows,
                                                           config_.plate_cols, plates_,
                                                           locations_);
        registry_.add(sciclops_);
    } else {
        add_manual("sciclops", nullptr);
    }
    if (topology.has_pf400) {
        pf400_ = std::make_shared<devices::Pf400Sim>(config_.pf400, locations_);
        registry_.add(pf400_);
    } else {
        add_manual("pf400", nullptr);
    }
    if (topology.has_barty) {
        barty_ = std::make_shared<devices::BartySim>(config_.barty, ot2s_.front()->reservoirs());
        barty_->set_prime_hook(prime_all_ot2s);
        registry_.add(barty_);
    } else {
        add_manual("barty", &ot2s_.front()->reservoirs())->set_prime_hook(prime_all_ot2s);
    }
}

}  // namespace sdl::core
