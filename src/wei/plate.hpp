// Microplates, wells and plate locations — the physical objects the
// workcell shuttles around.
//
// PlateRegistry owns every plate the sciclops has dispensed; LocationMap
// tracks which nest each plate currently occupies. Devices mutate both:
// the pf400 moves plates between locations, the ot2 fills wells, the
// camera photographs whatever sits at its nest.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "color/dye.hpp"
#include "color/rgb.hpp"
#include "support/units.hpp"

namespace sdl::wei {

using PlateId = std::int64_t;

/// What the ot2 actually dispensed into one well (volumes include pipette
/// noise) and the resulting ground-truth liquid color.
struct WellContent {
    std::array<support::Volume, color::kDyes> volumes{};
    color::Rgb8 true_color;
};

class Plate {
public:
    Plate(PlateId id, int rows, int cols);

    [[nodiscard]] PlateId id() const noexcept { return id_; }
    [[nodiscard]] int rows() const noexcept { return rows_; }
    [[nodiscard]] int cols() const noexcept { return cols_; }
    [[nodiscard]] int capacity() const noexcept { return rows_ * cols_; }

    [[nodiscard]] bool is_filled(int well) const;
    [[nodiscard]] const WellContent& content(int well) const;
    void fill(int well, WellContent content);

    /// Lowest-index empty well, or nullopt when the plate is full.
    [[nodiscard]] std::optional<int> next_free_well() const noexcept;
    [[nodiscard]] int filled_count() const noexcept;
    [[nodiscard]] bool full() const noexcept { return filled_count() == capacity(); }

private:
    PlateId id_;
    int rows_;
    int cols_;
    std::vector<std::optional<WellContent>> wells_;
};

class PlateRegistry {
public:
    /// Creates a fresh plate and returns its id.
    PlateId create(int rows, int cols);

    [[nodiscard]] Plate& get(PlateId id);
    [[nodiscard]] const Plate& get(PlateId id) const;
    [[nodiscard]] std::size_t count() const noexcept { return plates_.size(); }

private:
    std::map<PlateId, Plate> plates_;
    PlateId next_id_ = 1;
};

/// Named plate nests ("sciclops.exchange", "camera", "ot2.deck", "trash").
/// Each holds at most one plate; "trash" discards anything placed on it.
class LocationMap {
public:
    void add_location(const std::string& name);

    [[nodiscard]] bool has_location(const std::string& name) const noexcept;
    [[nodiscard]] std::optional<PlateId> peek(const std::string& name) const;

    /// Places a plate; throws Error("workcell") if occupied or unknown.
    void place(const std::string& name, PlateId plate);

    /// Removes and returns the plate; throws if empty or unknown.
    PlateId take(const std::string& name);

private:
    std::map<std::string, std::optional<PlateId>> slots_;
};

/// Location names used by the color-picker workcell.
namespace locations {
inline constexpr const char* kExchange = "sciclops.exchange";
inline constexpr const char* kCamera = "camera.nest";
inline constexpr const char* kOt2Deck = "ot2.deck";
inline constexpr const char* kTrash = "trash";
}  // namespace locations

}  // namespace sdl::wei
