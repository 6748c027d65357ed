#include "wei/plate.hpp"

#include "support/common.hpp"

namespace sdl::wei {

Plate::Plate(PlateId id, int rows, int cols) : id_(id), rows_(rows), cols_(cols) {
    support::check(rows > 0 && cols > 0, "plate dimensions must be positive");
    wells_.resize(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
}

bool Plate::is_filled(int well) const {
    support::check(well >= 0 && well < capacity(), "well index out of range");
    return wells_[static_cast<std::size_t>(well)].has_value();
}

const WellContent& Plate::content(int well) const {
    support::check(is_filled(well), "reading an empty well");
    return *wells_[static_cast<std::size_t>(well)];
}

void Plate::fill(int well, WellContent content) {
    support::check(well >= 0 && well < capacity(), "well index out of range");
    support::check(!wells_[static_cast<std::size_t>(well)].has_value(),
                   "well already contains a sample");
    wells_[static_cast<std::size_t>(well)] = std::move(content);
}

std::optional<int> Plate::next_free_well() const noexcept {
    for (std::size_t i = 0; i < wells_.size(); ++i) {
        if (!wells_[i].has_value()) return static_cast<int>(i);
    }
    return std::nullopt;
}

int Plate::filled_count() const noexcept {
    int n = 0;
    for (const auto& w : wells_) n += w.has_value() ? 1 : 0;
    return n;
}

PlateId PlateRegistry::create(int rows, int cols) {
    const PlateId id = next_id_++;
    plates_.emplace(id, Plate(id, rows, cols));
    return id;
}

Plate& PlateRegistry::get(PlateId id) {
    const auto it = plates_.find(id);
    if (it == plates_.end()) {
        throw support::Error("workcell", "unknown plate id " + std::to_string(id));
    }
    return it->second;
}

const Plate& PlateRegistry::get(PlateId id) const {
    const auto it = plates_.find(id);
    if (it == plates_.end()) {
        throw support::Error("workcell", "unknown plate id " + std::to_string(id));
    }
    return it->second;
}

void LocationMap::add_location(const std::string& name) {
    if (slots_.count(name) > 0) {
        throw support::ConfigError("duplicate location '" + name + "'");
    }
    slots_.emplace(name, std::nullopt);
}

bool LocationMap::has_location(const std::string& name) const noexcept {
    return slots_.count(name) > 0;
}

std::optional<PlateId> LocationMap::peek(const std::string& name) const {
    const auto it = slots_.find(name);
    if (it == slots_.end()) {
        throw support::Error("workcell", "unknown location '" + name + "'");
    }
    return it->second;
}

void LocationMap::place(const std::string& name, PlateId plate) {
    const auto it = slots_.find(name);
    if (it == slots_.end()) {
        throw support::Error("workcell", "unknown location '" + name + "'");
    }
    if (name == locations::kTrash) return;  // the trash swallows plates
    if (it->second.has_value()) {
        throw support::Error("workcell", "location '" + name + "' is occupied");
    }
    it->second = plate;
}

PlateId LocationMap::take(const std::string& name) {
    const auto it = slots_.find(name);
    if (it == slots_.end()) {
        throw support::Error("workcell", "unknown location '" + name + "'");
    }
    if (!it->second.has_value()) {
        throw support::Error("workcell", "no plate at location '" + name + "'");
    }
    const PlateId id = *it->second;
    it->second = std::nullopt;
    return id;
}

}  // namespace sdl::wei
