// The data portal: a searchable index over published experiment records,
// standing in for the Globus Search portal at the ALCF Community Data
// Co-Op (ACDC) where the paper publishes its results (Figure 3).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "data/record.hpp"
#include "support/json.hpp"

namespace sdl::data {

class DataPortal {
public:
    /// Ingests one document; documents must carry "type" ("experiment" or
    /// "run") and the matching identity fields. Re-ingesting the same
    /// identity overwrites (idempotent publishing).
    void ingest(support::json::Value document);

    [[nodiscard]] std::size_t experiment_count() const noexcept;
    [[nodiscard]] std::size_t run_count() const noexcept;

    [[nodiscard]] std::optional<ExperimentRecord> find_experiment(
        const std::string& experiment_id) const;
    [[nodiscard]] std::vector<RunRecord> runs_of(const std::string& experiment_id) const;
    [[nodiscard]] std::optional<RunRecord> find_run(const std::string& experiment_id,
                                                    int run_number) const;

    /// Figure 3, left: the experiment summary view.
    [[nodiscard]] std::string render_experiment_summary(
        const std::string& experiment_id) const;

    /// Figure 3, right: detailed data from one run.
    [[nodiscard]] std::string render_run_detail(const std::string& experiment_id,
                                                int run_number) const;

    /// Whole-portal persistence.
    [[nodiscard]] support::json::Value to_json() const;

private:
    // Keyed by experiment_id and (experiment_id, run_number).
    std::map<std::string, ExperimentRecord> experiments_;
    std::map<std::pair<std::string, int>, RunRecord> runs_;
};

}  // namespace sdl::data
