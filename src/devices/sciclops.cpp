#include "devices/sciclops.hpp"

#include "support/common.hpp"

namespace sdl::devices {

SciclopsSim::SciclopsSim(SciclopsConfig config, int plate_rows, int plate_cols,
                         wei::PlateRegistry& plates, wei::LocationMap& locations)
    : config_(config),
      plate_rows_(plate_rows),
      plate_cols_(plate_cols),
      plates_(plates),
      locations_(locations) {
    support::check(config.towers > 0 && config.plates_per_tower > 0,
                   "sciclops needs at least one stocked tower");
    plates_remaining_ = config.towers * config.plates_per_tower;
    info_ = wei::ModuleInfo{"sciclops", /*robotic=*/true};
}

support::Duration SciclopsSim::estimate(const wei::ActionRequest& request) const {
    (void)request;
    return config_.timing.get_plate;
}

wei::ActionResult SciclopsSim::execute(const wei::ActionRequest& request) {
    if (request.action != "get_plate") {
        return wei::ActionResult::failure("sciclops: unknown action '" + request.action + "'");
    }
    if (plates_remaining_ <= 0) {
        return wei::ActionResult::failure("sciclops: storage towers are empty");
    }
    if (locations_.peek(wei::locations::kExchange).has_value()) {
        return wei::ActionResult::failure("sciclops: exchange nest is occupied");
    }
    const wei::PlateId id = plates_.create(plate_rows_, plate_cols_);
    locations_.place(wei::locations::kExchange, id);
    --plates_remaining_;

    support::json::Value data = support::json::Value::object();
    data.set("plate_id", id);
    data.set("plates_remaining", plates_remaining_);
    return wei::ActionResult::success(std::move(data));
}

}  // namespace sdl::devices
