#include "wei/faults.hpp"

namespace sdl::wei {

FaultInjector::FaultInjector(FaultConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {}

bool FaultInjector::should_reject(const ActionRequest& request) {
    ++rolls_;
    double p = config_.command_rejection_prob;
    const auto it = config_.per_module.find(request.module);
    if (it != config_.per_module.end()) p = it->second;
    const bool reject = rng_.bernoulli(p);
    if (reject) ++rejections_;
    return reject;
}

}  // namespace sdl::wei
