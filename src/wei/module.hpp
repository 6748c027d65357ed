// Module abstraction: "each module is represented by a software
// abstraction that exposes a single device and, via interface methods,
// the actions that the device can perform" (§2.2).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "wei/action.hpp"

namespace sdl::wei {

struct ModuleInfo {
    std::string name;  ///< workcell-unique instance name, e.g. "pf400"
    /// True for instruments whose commands count toward CCWH ("robotic
    /// actions"); sensors like the camera observe rather than act.
    bool robotic = true;
};

/// A device behind its software abstraction. Implementations mutate their
/// simulated hardware state in execute() and advertise per-command
/// durations via estimate() — the transport decides how time passes
/// (virtual clock or scaled wall clock).
class Module {
public:
    virtual ~Module() = default;

    [[nodiscard]] virtual const ModuleInfo& info() const noexcept = 0;

    /// Modeled duration of `request` (the timing model).
    [[nodiscard]] virtual support::Duration estimate(const ActionRequest& request) const = 0;

    /// Performs the action's state change and returns the device report.
    /// Called by the transport when the action's modeled time has elapsed.
    [[nodiscard]] virtual ActionResult execute(const ActionRequest& request) = 0;
};

/// Name -> module lookup for a workcell.
class ModuleRegistry {
public:
    /// Registers a module under its info().name; duplicate names throw.
    void add(std::shared_ptr<Module> module);

    [[nodiscard]] Module& get(const std::string& name) const;
    [[nodiscard]] bool contains(const std::string& name) const noexcept {
        return modules_.count(name) > 0;
    }

private:
    std::map<std::string, std::shared_ptr<Module>> modules_;
};

}  // namespace sdl::wei
