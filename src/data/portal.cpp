#include "data/portal.hpp"

#include <cstdio>

#include "support/common.hpp"
#include "support/table.hpp"

namespace sdl::data {

namespace json = support::json;

void DataPortal::ingest(json::Value document) {
    const std::string type = document.get_or("type", std::string(""));
    if (type == "experiment") {
        ExperimentRecord record = ExperimentRecord::from_json(document);
        experiments_[record.experiment_id] = std::move(record);
    } else if (type == "run") {
        RunRecord record = RunRecord::from_json(document);
        runs_[{record.experiment_id, record.run_number}] = std::move(record);
    } else {
        throw support::Error("portal", "document has unknown type '" + type + "'");
    }
}

std::size_t DataPortal::experiment_count() const noexcept { return experiments_.size(); }
std::size_t DataPortal::run_count() const noexcept { return runs_.size(); }

std::optional<ExperimentRecord> DataPortal::find_experiment(
    const std::string& experiment_id) const {
    const auto it = experiments_.find(experiment_id);
    if (it == experiments_.end()) return std::nullopt;
    return it->second;
}

std::vector<RunRecord> DataPortal::runs_of(const std::string& experiment_id) const {
    std::vector<RunRecord> out;
    for (const auto& [key, record] : runs_) {
        if (key.first == experiment_id) out.push_back(record);
    }
    return out;
}

std::optional<RunRecord> DataPortal::find_run(const std::string& experiment_id,
                                              int run_number) const {
    const auto it = runs_.find({experiment_id, run_number});
    if (it == runs_.end()) return std::nullopt;
    return it->second;
}

std::string DataPortal::render_experiment_summary(const std::string& experiment_id) const {
    const auto experiment = find_experiment(experiment_id);
    if (!experiment.has_value()) {
        return "experiment '" + experiment_id + "' not found\n";
    }
    const std::vector<RunRecord> runs = runs_of(experiment_id);
    std::size_t total_samples = 0;
    for (const RunRecord& run : runs) total_samples += run.samples.size();

    std::string out;
    out += "=== " + experiment->experiment_id + " ===\n";
    out += "Date: " + experiment->date + " | Solver: " + experiment->solver +
           " | Target: " + experiment->target.str() +
           " | Batch size: " + std::to_string(experiment->batch_size) + "\n";
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu runs each with ~%zu samples, for a total of %zu experiments\n",
                  runs.size(), runs.empty() ? 0 : total_samples / runs.size(),
                  total_samples);
    out += line;

    support::TextTable table({"Run", "Samples", "Best score", "Duration", "Image"});
    table.set_alignment({support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Left});
    for (const RunRecord& run : runs) {
        table.add_row({"#" + std::to_string(run.run_number),
                       std::to_string(run.samples.size()),
                       support::fmt_double(run.best_score, 2),
                       (run.ended - run.started).pretty(), run.image_ref});
    }
    out += table.str();
    return out;
}

std::string DataPortal::render_run_detail(const std::string& experiment_id,
                                          int run_number) const {
    const auto run = find_run(experiment_id, run_number);
    if (!run.has_value()) {
        return "run #" + std::to_string(run_number) + " of '" + experiment_id +
               "' not found\n";
    }
    std::string out;
    out += "=== Detailed data from run #" + std::to_string(run->run_number) + " (" +
           experiment_id + ") ===\n";
    out += "Window: " + support::fmt_double(run->started.to_minutes(), 1) + " min -> " +
           support::fmt_double(run->ended.to_minutes(), 1) +
           " min | Best score: " + support::fmt_double(run->best_score, 2) +
           " | Image: " + run->image_ref + "\n";

    support::TextTable table(
        {"Sample", "Well", "Ratios (c,m,y,k)", "Measured", "Score", "Best so far"});
    table.set_alignment({support::TextTable::Align::Right, support::TextTable::Align::Right,
                         support::TextTable::Align::Left, support::TextTable::Align::Left,
                         support::TextTable::Align::Right,
                         support::TextTable::Align::Right});
    for (const SampleRecord& s : run->samples) {
        std::string ratios;
        for (std::size_t i = 0; i < s.ratios.size(); ++i) {
            if (i > 0) ratios += ",";
            ratios += support::fmt_double(s.ratios[i], 2);
        }
        table.add_row({std::to_string(s.sample_index), std::to_string(s.well), ratios,
                       s.measured.str(), support::fmt_double(s.score, 2),
                       support::fmt_double(s.best_score_so_far, 2)});
    }
    out += table.str();
    return out;
}

json::Value DataPortal::to_json() const {
    json::Value doc = json::Value::object();
    json::Value experiments = json::Value::array();
    for (const auto& [id, record] : experiments_) experiments.push_back(record.to_json());
    doc.set("experiments", std::move(experiments));
    json::Value runs = json::Value::array();
    for (const auto& [key, record] : runs_) runs.push_back(record.to_json());
    doc.set("runs", std::move(runs));
    return doc;
}

}  // namespace sdl::data
