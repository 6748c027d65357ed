// Transport abstraction: how commands reach device computers and how time
// passes while they execute.
//
// SimTransport (sim_transport.hpp) is the implementation sdlbench ships:
// discrete-event simulation, where device actions advance a virtual clock
// so an 8-hour experiment runs in milliseconds while reporting lab-scale
// durations. The engine and application code are transport-agnostic, so a
// transport to real device computers implements this interface alone.
#pragma once

#include "support/units.hpp"
#include "wei/action.hpp"

namespace sdl::wei {

class Transport {
public:
    virtual ~Transport() = default;

    /// Sends one command and blocks (in the caller's frame of reference)
    /// until the device reports back. The result's `duration` is the
    /// modeled execution time.
    [[nodiscard]] virtual ActionResult execute(const ActionRequest& request) = 0;

    /// Current experiment time (virtual or scaled wall clock).
    [[nodiscard]] virtual support::TimePoint now() const = 0;

    /// Lets modeled time pass without issuing a command (retry backoff,
    /// operator-configured dwell times).
    virtual void wait(support::Duration duration) = 0;
};

}  // namespace sdl::wei
