#include "devices/ot2.hpp"

#include <cmath>
#include <utility>

#include "support/common.hpp"

namespace sdl::devices {

namespace json = support::json;
using support::Volume;

namespace {

/// Reservoir level at start-up: the workcell starts drained, and barty
/// fills it on newplate.
constexpr Volume kReservoirInitial = Volume::zero();

Ot2Sim::Reservoirs make_reservoirs(Volume capacity) {
    return [&]<std::size_t... Dye>(std::index_sequence<Dye...>) {
        return Ot2Sim::Reservoirs{des::Store(capacity, kReservoirInitial,
                                             std::string(color::kCmyk[Dye].name))...};
    }(std::make_index_sequence<color::kDyes>{});
}

}  // namespace

Ot2Sim::Ot2Sim(Ot2Config config, std::uint64_t noise_seed, wei::PlateRegistry& plates,
               wei::LocationMap& locations)
    : config_(config),
      plates_(plates),
      locations_(locations),
      reservoirs_(make_reservoirs(config.reservoir_capacity)),
      rng_(noise_seed),
      clog_rng_(noise_seed ^ 0xC106C106C106ULL) {
    info_ = wei::ModuleInfo{"ot2", /*robotic=*/true};
}

support::Duration Ot2Sim::estimate(const wei::ActionRequest& request) const {
    std::size_t n_wells = 0;
    if (const json::Value* d = request.args.find("dispenses")) {
        if (d->is_array()) n_wells = d->as_array().size();
    }
    return config_.timing.protocol_overhead +
           config_.timing.per_well * static_cast<double>(n_wells);
}

bool Ot2Sim::can_cover(std::span<const DispenseOrder> orders) const noexcept {
    std::array<double, color::kDyes> needed_ul{};
    for (const DispenseOrder& order : orders) {
        for (std::size_t dye = 0; dye < color::kDyes; ++dye) {
            needed_ul[dye] += order.volumes[dye].to_microliters();
        }
    }
    for (std::size_t dye = 0; dye < color::kDyes; ++dye) {
        // Head-room factor covers pipetting-noise overshoot.
        if (Volume::microliters(needed_ul[dye] * 1.1) > reservoirs_[dye].level()) {
            return false;
        }
    }
    return true;
}

json::Value Ot2Sim::make_protocol_args(std::span<const DispenseOrder> orders) {
    json::Value args = json::Value::object();
    args.set("protocol", "mix_colors");
    json::Value dispenses = json::Value::array();
    for (const DispenseOrder& order : orders) {
        json::Value node = json::Value::object();
        node.set("well", order.well);
        json::Value volumes = json::Value::array();
        for (const Volume v : order.volumes) volumes.push_back(v.to_microliters());
        node.set("volumes_ul", std::move(volumes));
        dispenses.push_back(std::move(node));
    }
    args.set("dispenses", std::move(dispenses));
    return args;
}

std::vector<DispenseOrder> Ot2Sim::parse_protocol_args(const json::Value& args) {
    std::vector<DispenseOrder> orders;
    const json::Value* dispenses = args.find("dispenses");
    if (dispenses == nullptr || !dispenses->is_array()) {
        throw support::Error("device", "ot2 protocol args need a 'dispenses' array");
    }
    for (const json::Value& node : dispenses->as_array()) {
        DispenseOrder order;
        order.well = static_cast<int>(node.at("well").as_int());
        const json::Array& volumes = node.at("volumes_ul").as_array();
        if (volumes.size() != color::kDyes) {
            throw support::Error("device", "ot2 dispense needs exactly " +
                                               std::to_string(color::kDyes) + " volumes");
        }
        for (std::size_t dye = 0; dye < color::kDyes; ++dye) {
            order.volumes[dye] = Volume::microliters(volumes[dye].as_double());
        }
        orders.push_back(order);
    }
    return orders;
}

wei::ActionResult Ot2Sim::execute(const wei::ActionRequest& request) {
    if (request.action != "run_protocol") {
        return wei::ActionResult::failure("ot2: unknown action '" + request.action + "'");
    }
    const std::string protocol = request.args.get_or("protocol", std::string(""));
    if (protocol != "mix_colors") {
        return wei::ActionResult::failure("ot2: unknown protocol '" + protocol + "'");
    }

    if (needs_prime_) {
        return wei::ActionResult::failure(
            "ot2: pipette tip clogged — run prime_tips before the next protocol");
    }

    const auto plate_id = locations_.peek(wei::locations::kOt2Deck);
    if (!plate_id.has_value()) {
        return wei::ActionResult::failure("ot2: no plate on the deck");
    }
    wei::Plate& plate = plates_.get(*plate_id);

    std::vector<DispenseOrder> orders;
    try {
        orders = parse_protocol_args(request.args);
    } catch (const support::Error& e) {
        return wei::ActionResult::failure(e.what());
    }

    // Validate everything before touching state so a failed protocol
    // leaves the plate and the reservoirs unchanged.
    for (const DispenseOrder& order : orders) {
        if (order.well < 0 || order.well >= plate.capacity()) {
            return wei::ActionResult::failure("ot2: well index out of range");
        }
        if (plate.is_filled(order.well)) {
            return wei::ActionResult::failure("ot2: well " + std::to_string(order.well) +
                                              " already contains a sample");
        }
    }
    if (!can_cover(orders)) {
        return wei::ActionResult::failure(
            "ot2: insufficient reservoir volume (needs refill)");
    }

    json::Value mixed = json::Value::array();
    for (const DispenseOrder& order : orders) {
        wei::WellContent content;
        for (std::size_t dye = 0; dye < color::kDyes; ++dye) {
            const double requested = order.volumes[dye].to_microliters();
            double actual = 0.0;
            if (requested > 0.0) {
                // Proportional CV plus absolute floor, truncated at zero.
                actual = requested * (1.0 + rng_.normal(0.0, config_.dispense_cv)) +
                         rng_.normal(0.0, config_.dispense_sigma_ul);
                actual = std::max(actual, 0.0);
            }
            if (!reservoirs_[dye].try_withdraw(Volume::microliters(actual))) {
                return wei::ActionResult::failure("ot2: reservoir '" +
                                                  reservoirs_[dye].name() +
                                                  "' ran dry mid-protocol");
            }
            content.volumes[dye] = Volume::microliters(actual);
        }
        if (config_.dye_drift_per_well > 0.0) {
            // Evaporation concentrates the dyes: the optical path grows a
            // little with every well mixed so far. The solver keeps the
            // undrifted model — that mismatch is the point.
            const double path =
                1.0 + config_.dye_drift_per_well * static_cast<double>(wells_mixed_);
            content.true_color = color::BeerLambertMixer(path).mix(content.volumes);
        } else {
            content.true_color = mixer_.mix(content.volumes);
        }
        plate.fill(order.well, content);
        ++wells_mixed_;

        json::Value entry = json::Value::object();
        entry.set("well", order.well);
        entry.set("color", content.true_color.str());
        mixed.push_back(std::move(entry));
    }

    // Roll the clog chain only when enabled, after a *successful*
    // protocol (a clog is left behind by real pipetting work).
    if (config_.clog_prob > 0.0 && clog_rng_.bernoulli(config_.clog_prob)) {
        needs_prime_ = true;
    }

    json::Value data = json::Value::object();
    data.set("plate_id", *plate_id);
    data.set("wells_mixed", static_cast<std::int64_t>(orders.size()));
    data.set("mixed", std::move(mixed));
    return wei::ActionResult::success(std::move(data));
}

}  // namespace sdl::devices
