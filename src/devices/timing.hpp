// Device timing models, calibrated against the paper's Table 1.
//
// For B=1, N=128 the paper reports: total 8 h 12 m, synthesis 5 h 10 m,
// transfer 3 h 2 m, uploads every ~3 m 48 s. Working backwards:
//   * transfer/iteration = 10,920 s / 128  = 85.3 s  -> 42.65 s per pf400 move
//     (two moves per mix iteration: camera -> ot2 -> camera);
//   * synthesis/iteration = 18,600 s / 128 = 145.3 s -> 110.3 s protocol
//     overhead (deck homing, tip handling) + 35.0 s per well (4 dyes x
//     ~8.75 s aspirate/dispense each).
// Every constant is configurable so alternative workcells can be modeled.
#pragma once

#include "support/units.hpp"

namespace sdl::devices {

using support::Duration;

struct SciclopsTiming {
    Duration get_plate = Duration::seconds(20.0);  ///< tower pick + stage
};

struct Pf400Timing {
    Duration transfer = Duration::seconds(42.65);  ///< one plate move
};

struct Ot2Timing {
    /// Fixed protocol cost: deck calibration, tip pickup/drop.
    Duration protocol_overhead = Duration::seconds(110.3);
    /// Marginal cost per well mixed (4 aspirate/dispense cycles).
    Duration per_well = Duration::seconds(35.0);
};

struct BartyTiming {
    Duration fill = Duration::seconds(45.0);    ///< pump reservoirs full
    Duration drain = Duration::seconds(25.0);   ///< empty reservoirs
    Duration refill = Duration::seconds(65.0);  ///< drain + fill cycle
    Duration prime = Duration::seconds(30.0);   ///< back-flush clogged tips
};

struct CameraTiming {
    Duration capture = Duration::seconds(1.5);  ///< focus + exposure + grab
};

}  // namespace sdl::devices
