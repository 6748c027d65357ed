#include "devices/pf400.hpp"

#include "support/common.hpp"

namespace sdl::devices {

Pf400Sim::Pf400Sim(Pf400Config config, wei::LocationMap& locations)
    : config_(config), locations_(locations) {
    info_ = wei::ModuleInfo{"pf400", /*robotic=*/true};
}

support::Duration Pf400Sim::estimate(const wei::ActionRequest& request) const {
    (void)request;
    return config_.timing.transfer;
}

wei::ActionResult Pf400Sim::execute(const wei::ActionRequest& request) {
    if (request.action != "transfer") {
        return wei::ActionResult::failure("pf400: unknown action '" + request.action + "'");
    }
    const std::string source = request.args.get_or("source", std::string(""));
    const std::string target = request.args.get_or("target", std::string(""));
    if (source.empty() || target.empty()) {
        return wei::ActionResult::failure("pf400: transfer needs 'source' and 'target'");
    }
    try {
        if (!locations_.peek(source).has_value()) {
            return wei::ActionResult::failure("pf400: no plate at '" + source + "'");
        }
        if (target != wei::locations::kTrash && locations_.peek(target).has_value()) {
            return wei::ActionResult::failure("pf400: target '" + target + "' is occupied");
        }
        const wei::PlateId id = locations_.take(source);
        locations_.place(target, id);
        ++transfers_completed_;

        support::json::Value data = support::json::Value::object();
        data.set("plate_id", id);
        data.set("source", source);
        data.set("target", target);
        return wei::ActionResult::success(std::move(data));
    } catch (const support::Error& e) {
        return wei::ActionResult::failure(std::string("pf400: ") + e.what());
    }
}

}  // namespace sdl::devices
