// Paper-calibrated experiment presets: the exact configurations behind
// each reproduced table and figure.
#pragma once

#include "core/colorpicker.hpp"

namespace sdl::core {

/// Table 1 / §4 metrics run: B=1, N=128, genetic solver. Uses a 128-well
/// plate (8x16) so the whole experiment fits one plate — the decomposition
/// under which the paper's 387-command count is exactly reproducible
/// (3 setup commands + 128 iterations x 3 robotic commands; the camera is
/// a sensor and the terminal trashplate happens after the experiment
/// ends). bench_table1 prints this accounting in its notes.
[[nodiscard]] ColorPickerConfig preset_table1(std::uint64_t seed = 1);

/// Same run on standard 96-well plates (two plates, mid-run plate swap) —
/// the variant bench_table1 reports alongside the single-plate one.
[[nodiscard]] ColorPickerConfig preset_table1_96well(std::uint64_t seed = 1);

/// Figure 4: one of the seven batch-size experiments. N=128 samples,
/// target RGB(120,120,120), first batch random (the GA's uniform-grid
/// initialization), later batches from the solver.
[[nodiscard]] ColorPickerConfig preset_fig4(int batch_size, std::uint64_t seed = 1);

/// Figure 3: the portal snapshot of 2023-08-16 — "12 runs each with 15
/// samples, for a total of 180 experiments".
[[nodiscard]] ColorPickerConfig preset_fig3_portal(std::uint64_t seed = 1);

/// Quickstart-sized run for examples and smoke tests (fast, small).
[[nodiscard]] ColorPickerConfig preset_quickstart(std::uint64_t seed = 1);

}  // namespace sdl::core
