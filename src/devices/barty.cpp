#include "devices/barty.hpp"

#include "support/common.hpp"

namespace sdl::devices {

namespace json = support::json;
using support::Volume;

BartySim::BartySim(BartyConfig config, Ot2Sim& ot2)
    : config_(config), ot2_(ot2) {
    bulk_remaining_.fill(config_.bulk_capacity);
    info_ = wei::ModuleInfo{"barty", /*robotic=*/true};
}

support::Duration BartySim::estimate(const wei::ActionRequest& request) const {
    if (request.action == "fill_colors") return config_.timing.fill;
    if (request.action == "drain_colors") return config_.timing.drain;
    if (request.action == "prime_tips") return config_.timing.prime;
    return config_.timing.refill;
}

wei::ActionResult BartySim::fill() {
    json::Value pumped = json::Value::object();
    for (std::size_t dye = 0; dye < 4; ++dye) {
        des::Store& reservoir = ot2_.reservoirs()[dye];
        const Volume space = reservoir.capacity() - reservoir.level();
        if (space > bulk_remaining_[dye]) {
            return wei::ActionResult::failure("barty: bulk vessel for '" +
                                              reservoir.name() + "' is exhausted");
        }
        reservoir.deposit(space);
        bulk_remaining_[dye] -= space;
        pumped.set(reservoir.name(), space.to_microliters());
    }
    json::Value data = json::Value::object();
    data.set("pumped_ul", std::move(pumped));
    return wei::ActionResult::success(std::move(data));
}

wei::ActionResult BartySim::drain() {
    for (des::Store& reservoir : ot2_.reservoirs()) reservoir.drain();
    return wei::ActionResult::success();
}

wei::ActionResult BartySim::execute(const wei::ActionRequest& request) {
    if (request.action == "fill_colors") return fill();
    if (request.action == "drain_colors") return drain();
    if (request.action == "refill_colors") {
        const wei::ActionResult drained = drain();
        if (!drained.ok()) return drained;
        return fill();
    }
    if (request.action == "prime_tips") {
        ot2_.prime_tips();
        return wei::ActionResult::success();
    }
    return wei::ActionResult::failure("barty: unknown action '" + request.action + "'");
}

}  // namespace sdl::devices
