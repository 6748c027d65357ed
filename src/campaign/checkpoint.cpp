#include "campaign/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/campaign_io.hpp"
#include "campaign/report.hpp"
#include "core/config_io.hpp"
#include "support/common.hpp"

namespace sdl::campaign {

namespace json = support::json;

std::string journal_path(const std::string& out_dir) {
    return out_dir + "/cells.jsonl";
}

// ---------------------------------------------------------------- digests

namespace {

std::string fnv1a_hex(std::string_view text) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;  // FNV prime
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

color::Rgb8 rgb_from_json(const json::Value& v) {
    const json::Array& a = v.as_array();
    support::check(a.size() == 3, "journal rgb triple must have 3 entries");
    return color::Rgb8{support::narrow<std::uint8_t>(a[0].as_int()),
                       support::narrow<std::uint8_t>(a[1].as_int()),
                       support::narrow<std::uint8_t>(a[2].as_int())};
}

// The journal stores the outcome in native units — durations in seconds,
// doubles in shortest-round-trip text (the JSON writer's format) — so
// outcome_from_json(outcome_to_json(o)) reproduces every field bit for
// bit, which is what makes resumed and fleet reports byte-identical.
json::Value outcome_to_json(const core::ExperimentOutcome& outcome) {
    json::Value doc = json::Value::object();
    doc.set("experiment_id", outcome.experiment_id);
    json::Value samples = json::Value::array();
    for (const core::SamplePoint& s : outcome.samples) {
        json::Value point = json::Value::object();
        point.set("index", s.index);
        point.set("elapsed_min", s.elapsed_minutes);
        point.set("score", s.score);
        point.set("best_so_far", s.best_so_far);
        json::Value ratios = json::Value::array();
        for (const double r : s.ratios) ratios.push_back(r);
        point.set("ratios", std::move(ratios));
        point.set("measured", rgb_to_json(s.measured));
        samples.push_back(std::move(point));
    }
    doc.set("samples", std::move(samples));
    doc.set("best_score", outcome.best_score);
    json::Value best_ratios = json::Value::array();
    for (const double r : outcome.best_ratios) best_ratios.push_back(r);
    doc.set("best_ratios", std::move(best_ratios));
    doc.set("best_color", rgb_to_json(outcome.best_color));
    doc.set("reached_threshold", outcome.reached_threshold);

    const metrics::SdlMetrics& m = outcome.metrics;
    json::Value met = json::Value::object();
    met.set("time_without_humans_s", m.time_without_humans.to_seconds());
    met.set("commands_completed", static_cast<std::int64_t>(m.commands_completed));
    met.set("synthesis_s", m.synthesis_time.to_seconds());
    met.set("transfer_s", m.transfer_time.to_seconds());
    met.set("total_s", m.total_time.to_seconds());
    met.set("total_colors", m.total_colors);
    met.set("time_per_color_s", m.time_per_color.to_seconds());
    met.set("mean_upload_interval_s", m.mean_upload_interval.to_seconds());
    met.set("interventions", m.interventions);
    doc.set("metrics", std::move(met));

    doc.set("plates_used", outcome.plates_used);
    doc.set("replenishes", outcome.replenishes);
    doc.set("batches_run", outcome.batches_run);
    doc.set("frame_retakes", outcome.frame_retakes);
    // Conditional so journals from clog-free runs keep their exact bytes
    // (the resume round trip diffs them byte for byte).
    if (outcome.reprimes > 0) doc.set("reprimes", outcome.reprimes);
    doc.set("wells_rescued_total", static_cast<std::int64_t>(outcome.wells_rescued_total));
    doc.set("mean_grid_residual_px", outcome.mean_grid_residual_px);
    return doc;
}

core::ExperimentOutcome outcome_from_json(const json::Value& doc) {
    core::ExperimentOutcome outcome;
    outcome.experiment_id = doc.at("experiment_id").as_string();
    for (const json::Value& point : doc.at("samples").as_array()) {
        core::SamplePoint s;
        s.index = static_cast<int>(point.at("index").as_int());
        s.elapsed_minutes = point.at("elapsed_min").as_double();
        s.score = point.at("score").as_double();
        s.best_so_far = point.at("best_so_far").as_double();
        for (const json::Value& r : point.at("ratios").as_array()) {
            s.ratios.push_back(r.as_double());
        }
        s.measured = rgb_from_json(point.at("measured"));
        outcome.samples.push_back(std::move(s));
    }
    outcome.best_score = doc.at("best_score").as_double();
    for (const json::Value& r : doc.at("best_ratios").as_array()) {
        outcome.best_ratios.push_back(r.as_double());
    }
    outcome.best_color = rgb_from_json(doc.at("best_color"));
    outcome.reached_threshold = doc.at("reached_threshold").as_bool();

    const json::Value& met = doc.at("metrics");
    metrics::SdlMetrics& m = outcome.metrics;
    m.time_without_humans =
        support::Duration::seconds(met.at("time_without_humans_s").as_double());
    m.commands_completed =
        static_cast<std::uint64_t>(met.at("commands_completed").as_int());
    m.synthesis_time = support::Duration::seconds(met.at("synthesis_s").as_double());
    m.transfer_time = support::Duration::seconds(met.at("transfer_s").as_double());
    m.total_time = support::Duration::seconds(met.at("total_s").as_double());
    m.total_colors = static_cast<int>(met.at("total_colors").as_int());
    m.time_per_color = support::Duration::seconds(met.at("time_per_color_s").as_double());
    m.mean_upload_interval =
        support::Duration::seconds(met.at("mean_upload_interval_s").as_double());
    m.interventions = static_cast<int>(met.at("interventions").as_int());

    outcome.plates_used = static_cast<int>(doc.at("plates_used").as_int());
    outcome.replenishes = static_cast<int>(doc.at("replenishes").as_int());
    outcome.batches_run = static_cast<int>(doc.at("batches_run").as_int());
    outcome.frame_retakes = static_cast<int>(doc.at("frame_retakes").as_int());
    outcome.reprimes = static_cast<int>(doc.get_or("reprimes", std::int64_t{0}));
    outcome.wells_rescued_total =
        static_cast<std::size_t>(doc.at("wells_rescued_total").as_int());
    outcome.mean_grid_residual_px = doc.at("mean_grid_residual_px").as_double();
    return outcome;
}

}  // namespace

std::string spec_digest(const CampaignSpec& spec) {
    return fnv1a_hex(campaign_to_yaml(spec));
}

std::string cell_digest(const CampaignCell& cell) {
    return fnv1a_hex(core::config_to_yaml(cell.config));
}

// ---------------------------------------------------------------- records

json::Value journal_header(const CampaignSpec& spec, std::size_t cells_total) {
    json::Value doc = json::Value::object();
    doc.set("schema", std::string(kJournalSchema));
    doc.set("campaign", spec.name);
    doc.set("spec_digest", spec_digest(spec));
    doc.set("cells_total", static_cast<std::int64_t>(cells_total));
    return doc;
}

json::Value cell_record_to_json(const CellResult& result) {
    json::Value doc = json::Value::object();
    doc.set("schema", std::string(kCellRecordSchema));
    doc.set("cell_index", static_cast<std::int64_t>(result.cell.index));
    doc.set("experiment_id", result.cell.config.experiment_id);
    doc.set("config_digest", cell_digest(result.cell));
    // Host wall time: the fleet's busy-time summary reads it; excluded
    // from reports.
    doc.set("wall_seconds", result.wall_seconds);
    doc.set("outcome", outcome_to_json(result.outcome));
    return doc;
}

// ---------------------------------------------------------------- journal

namespace {

support::AppendWriter start_journal(const std::string& out_dir,
                                    const CampaignSpec& spec, std::size_t cells_total) {
    const std::string path = journal_path(out_dir);
    support::atomic_write(path, journal_header(spec, cells_total).dump() + "\n");
    return support::AppendWriter(path);
}

}  // namespace

CheckpointJournal::CheckpointJournal(support::AppendWriter writer)
    : writer_(std::move(writer)) {}

CheckpointJournal::CheckpointJournal(const std::string& out_dir,
                                     const CampaignSpec& spec, std::size_t cells_total)
    : writer_(start_journal(out_dir, spec, cells_total)) {}

CheckpointJournal CheckpointJournal::reopen(const std::string& out_dir) {
    return CheckpointJournal(support::AppendWriter(journal_path(out_dir)));
}

void CheckpointJournal::append(const CellResult& result) {
    writer_.append_line(cell_record_to_json(result).dump());
}

// ------------------------------------------------------------------ load

namespace {

[[noreturn]] void reject(const std::string& path, const std::string& why) {
    throw support::ConfigError("journal '" + path + "': " + why);
}

std::string read_bytes(std::ifstream& file) {
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

}  // namespace

std::size_t journal_progress(const std::string& path,
                             const CampaignSpec& spec) noexcept {
    try {
        std::ifstream file(path, std::ios::binary);
        if (!file) return 0;
        const std::string text = read_bytes(file);
        // Only complete lines count: a torn final fragment (kill
        // mid-append) is not a completed record — counting it would let
        // an almost-finished crashed run masquerade as complete.
        const std::vector<std::string_view> lines =
            support::split_complete_lines(text).lines;
        if (lines.empty()) return 0;
        const json::Value header = json::parse(lines.front());
        if (header.get_or("schema", std::string()) != kJournalSchema ||
            header.get_or("spec_digest", std::string()) != spec_digest(spec)) {
            return 0;
        }
        std::size_t records = 0;
        for (std::size_t i = 1; i < lines.size(); ++i) {
            if (!lines[i].empty()) ++records;
        }
        // A journal with a record per cell is a finished run: rerunning
        // reproduces it, nothing is lost by truncation.
        const auto cells_total =
            static_cast<std::size_t>(header.get_or("cells_total", std::int64_t{0}));
        return records < cells_total ? records : 0;
    } catch (...) {
        return 0;
    }
}

void validate_journal_header(std::string_view line, const CampaignSpec& spec,
                             std::size_t grid_cells, const std::string& path) {
    json::Value header;
    try {
        header = json::parse(line);
    } catch (const support::Error& e) {
        reject(path, std::string("corrupt header record: ") + e.what());
    }
    if (header.get_or("schema", std::string()) != kJournalSchema) {
        reject(path, "unexpected header schema '" +
                         header.get_or("schema", std::string("<missing>")) +
                         "' (expected " + std::string(kJournalSchema) + ")");
    }
    const std::string expected_digest = spec_digest(spec);
    const std::string found_digest = header.get_or("spec_digest", std::string());
    if (found_digest != expected_digest) {
        reject(path, "spec digest mismatch: journal was written for spec " +
                         found_digest + ", but this campaign file digests to " +
                         expected_digest +
                         " — resuming across different specs is not allowed");
    }
    const auto cells_total =
        static_cast<std::size_t>(header.get_or("cells_total", std::int64_t{0}));
    if (cells_total != grid_cells) {
        reject(path, "cell count mismatch: journal expects " +
                         std::to_string(cells_total) + " cells, grid expands to " +
                         std::to_string(grid_cells));
    }
}

CellResult parse_cell_record(std::string_view line, const std::vector<CampaignCell>& grid,
                             const std::string& path) {
    const json::Value record = json::parse(line);  // throws on corrupt JSON
    if (record.get_or("schema", std::string()) != kCellRecordSchema) {
        reject(path, "unexpected record schema '" +
                         record.get_or("schema", std::string("<missing>")) + "'");
    }
    const auto index = static_cast<std::size_t>(record.at("cell_index").as_int());
    if (index >= grid.size()) {
        reject(path, "cell index " + std::to_string(index) + " out of range (grid has " +
                         std::to_string(grid.size()) + " cells)");
    }
    const CampaignCell& cell = grid[index];
    const std::string digest = record.at("config_digest").as_string();
    if (digest != cell_digest(cell)) {
        reject(path, "cell " + std::to_string(index) + " config digest mismatch (journal " +
                         digest + ", re-expanded grid " + cell_digest(cell) + ")");
    }
    const std::string id = record.at("experiment_id").as_string();
    if (id != cell.config.experiment_id) {
        reject(path, "cell " + std::to_string(index) + " experiment id mismatch ('" + id +
                         "' vs '" + cell.config.experiment_id + "')");
    }
    CellResult result;
    result.cell = cell;
    result.outcome = outcome_from_json(record.at("outcome"));
    result.wall_seconds = record.get_or("wall_seconds", 0.0);
    return result;
}

LoadedJournal load_journal(const std::string& path, const CampaignSpec& spec,
                           const std::vector<CampaignCell>& grid) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw support::Error("io", "cannot open journal '" + path + "'");
    const std::string text = read_bytes(file);

    // An unterminated final fragment is the torn tail a kill mid-append
    // leaves behind.
    const support::CompleteLines split = support::split_complete_lines(text);
    if (split.lines.empty()) {
        reject(path, text.empty()
                         ? "journal is empty"
                         : "header record is truncated — the run died before "
                           "checkpointing anything; start fresh without --resume");
    }

    LoadedJournal loaded;
    validate_journal_header(split.lines.front(), spec, grid.size(), path);
    loaded.lines.emplace_back(split.lines.front());

    std::vector<bool> seen(grid.size(), false);
    for (std::size_t i = 1; i < split.lines.size(); ++i) {
        const std::string_view line = split.lines[i];
        CellResult result;
        try {
            result = parse_cell_record(line, grid, path);
        } catch (const support::ConfigError&) {
            throw;  // validation failures are always loud
        } catch (const support::Error& e) {
            // Corrupt JSON mid-journal means real corruption; only the
            // final complete-line slot could plausibly be a torn write
            // that still ended in '\n' (it cannot — appends are single
            // writes) — stay strict.
            reject(path, "corrupt record on line " + std::to_string(i + 1) + ": " +
                             e.what());
        }
        const std::size_t index = result.cell.index;
        if (seen[index]) {
            reject(path, "cell " + std::to_string(index) + " recorded twice");
        }
        seen[index] = true;
        loaded.cells.push_back(std::move(result));
        loaded.lines.emplace_back(line);
    }
    loaded.dropped_torn_tail = split.tail < text.size();
    return loaded;
}

}  // namespace sdl::campaign
