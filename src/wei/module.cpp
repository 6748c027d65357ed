#include "wei/module.hpp"

#include "support/common.hpp"

namespace sdl::wei {

void ModuleRegistry::add(std::shared_ptr<Module> module) {
    support::check(module != nullptr, "cannot register a null module");
    const std::string name = module->info().name;
    if (modules_.count(name) > 0) {
        throw support::ConfigError("duplicate module name '" + name + "'");
    }
    modules_.emplace(name, std::move(module));
}

Module& ModuleRegistry::get(const std::string& name) const {
    const auto it = modules_.find(name);
    if (it == modules_.end()) {
        throw support::ConfigError("unknown module '" + name + "'");
    }
    return *it->second;
}

}  // namespace sdl::wei
