#include "campaign/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "campaign/campaign_io.hpp"
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
        point.set("measured", core::rgb_to_doc(s.measured));
        samples.push_back(std::move(point));
    }
    doc.set("samples", std::move(samples));
    doc.set("best_score", outcome.best_score);
    json::Value best_ratios = json::Value::array();
    for (const double r : outcome.best_ratios) best_ratios.push_back(r);
    doc.set("best_ratios", std::move(best_ratios));
    doc.set("best_color", core::rgb_to_doc(outcome.best_color));
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
    // Every read names its field, so a wrong-typed one fails naming it.
    const auto number = [](const auto& node, const char* key) {
        return node.at(key).as_double(key);
    };
    const auto count = [](const auto& node, const char* key) {
        return node.at(key).as_int(key);
    };
    core::ExperimentOutcome outcome;
    outcome.experiment_id = doc.at("experiment_id").as_string("experiment_id");
    for (const json::Value& entry : doc.at("samples").as_array("samples")) {
        const json::Object& point = entry.as_object("samples entry");
        core::SamplePoint s;
        s.index = static_cast<int>(count(point, "index"));
        s.elapsed_minutes = number(point, "elapsed_min");
        s.score = number(point, "score");
        s.best_so_far = number(point, "best_so_far");
        for (const json::Value& r : point.at("ratios").as_array("ratios")) {
            s.ratios.push_back(r.as_double("ratios entry"));
        }
        s.measured = core::rgb_from_doc(point.at("measured"), "sample measured color");
        outcome.samples.push_back(std::move(s));
    }
    outcome.best_score = number(doc, "best_score");
    for (const json::Value& r : doc.at("best_ratios").as_array("best_ratios")) {
        outcome.best_ratios.push_back(r.as_double("best_ratios entry"));
    }
    outcome.best_color = core::rgb_from_doc(doc.at("best_color"), "best_color");
    outcome.reached_threshold = doc.at("reached_threshold").as_bool("reached_threshold");

    const json::Object& met = doc.at("metrics").as_object("metrics");
    metrics::SdlMetrics& m = outcome.metrics;
    m.time_without_humans = support::Duration::seconds(number(met, "time_without_humans_s"));
    m.commands_completed = static_cast<std::uint64_t>(count(met, "commands_completed"));
    m.synthesis_time = support::Duration::seconds(number(met, "synthesis_s"));
    m.transfer_time = support::Duration::seconds(number(met, "transfer_s"));
    m.total_time = support::Duration::seconds(number(met, "total_s"));
    m.total_colors = static_cast<int>(count(met, "total_colors"));
    m.time_per_color = support::Duration::seconds(number(met, "time_per_color_s"));
    m.mean_upload_interval = support::Duration::seconds(number(met, "mean_upload_interval_s"));
    m.interventions = static_cast<int>(count(met, "interventions"));

    outcome.plates_used = static_cast<int>(count(doc, "plates_used"));
    outcome.replenishes = static_cast<int>(count(doc, "replenishes"));
    outcome.batches_run = static_cast<int>(count(doc, "batches_run"));
    outcome.frame_retakes = static_cast<int>(count(doc, "frame_retakes"));
    outcome.reprimes = static_cast<int>(doc.get_or("reprimes", std::int64_t{0}));
    outcome.wells_rescued_total = static_cast<std::size_t>(count(doc, "wells_rescued_total"));
    outcome.mean_grid_residual_px = number(doc, "mean_grid_residual_px");
    return outcome;
}

}  // namespace

std::string spec_digest(const CampaignSpec& spec) {
    return fnv1a_hex(campaign_to_yaml(spec));
}

std::string cell_digest(const CampaignCell& cell) {
    return fnv1a_hex(core::config_to_yaml(cell.config));
}

// ------------------------------------------------------------------ logs

namespace {

[[noreturn]] void reject(const std::string& path, const std::string& why) {
    throw support::ConfigError("journal '" + path + "': " + why);
}

}  // namespace

support::AppendWriter start_log(const std::string& path, const json::Value& header) {
    support::atomic_write(path, header.dump() + "\n");
    return support::AppendWriter(path);
}

LogReader::LogReader(std::string path, std::string_view schema, std::string digest,
                     std::size_t cells_total)
    : path_(std::move(path)),
      schema_(schema),
      digest_(std::move(digest)),
      cells_total_(cells_total) {}

std::vector<json::Value> LogReader::read() {
    std::ifstream file(path_, std::ios::binary);
    if (!file) return {};
    file.seekg(static_cast<std::streamoff>(offset_));
    const std::string chunk((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    const support::CompleteLines split = support::split_complete_lines(chunk);
    std::vector<json::Value> records;
    for (const std::string_view line : split.lines) {
        ++lines_;
        if (!header_seen_) {
            check_header(line);
            header_seen_ = true;
            continue;
        }
        try {
            records.push_back(json::parse(line));
        } catch (const support::Error& e) {
            // Appends are single writes, so a complete line is a whole
            // record: one that does not parse is real corruption.
            reject(path_, "corrupt record on line " + std::to_string(lines_) + ": " +
                              e.what());
        }
    }
    offset_ += split.tail;
    remainder_ = chunk.size() - split.tail;
    return records;
}

void LogReader::check_header(std::string_view line) const {
    std::string schema;
    std::string found_digest;
    std::int64_t cells_total = 0;
    try {
        const json::Value header = json::parse(line);
        schema = header.get_or("schema", std::string("<missing>"));
        found_digest = header.get_or("spec_digest", std::string());
        cells_total = header.get_or("cells_total", std::int64_t{0});
    } catch (const support::Error& e) {
        reject(path_, std::string("corrupt header record: ") + e.what());
    }
    if (schema != schema_) {
        reject(path_, "unexpected header schema '" + schema + "' (expected " + schema_ + ")");
    }
    if (found_digest != digest_) {
        reject(path_, "spec digest mismatch: journal was written for spec " +
                          found_digest + ", but this campaign file digests to " + digest_ +
                          " — resuming across different specs is not allowed");
    }
    if (static_cast<std::size_t>(cells_total) != cells_total_) {
        reject(path_, "cell count mismatch: journal expects " + std::to_string(cells_total) +
                          " cells, grid expands to " + std::to_string(cells_total_));
    }
}

namespace {

/// A whole log, as a crashed run left it.
struct LoadedLog {
    std::vector<json::Value> records;
    bool dropped_torn_tail = false;
};

LoadedLog load_log(const std::string& path, std::string_view schema,
                   const std::string& digest, std::size_t cells_total) {
    LogReader reader(path, schema, digest, cells_total);
    LoadedLog log{reader.read(), reader.remainder() > 0};
    if (!reader.header_seen()) {
        reject(path, log.dropped_torn_tail
                         ? "header record is truncated — the run died before "
                           "checkpointing anything; start fresh without --resume"
                         : "no header record: the file is missing or empty");
    }
    return log;
}

}  // namespace

ResumedLog resume_log(const std::string& path, std::string_view schema,
                      const std::string& digest, std::size_t cells_total) {
    LoadedLog log = load_log(path, schema, digest, cells_total);
    if (log.dropped_torn_tail) {
        const std::string text = support::read_file(path, "journal");
        support::atomic_write(path, std::string_view(text).substr(0, text.rfind('\n') + 1));
    }
    return ResumedLog{std::move(log.records), log.dropped_torn_tail, support::AppendWriter(path)};
}

// --------------------------------------------------------------- journal

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

CheckpointJournal::CheckpointJournal(support::AppendWriter writer)
    : writer_(std::move(writer)) {}

CheckpointJournal::CheckpointJournal(const std::string& out_dir,
                                     const CampaignSpec& spec, std::size_t cells_total)
    : writer_(start_log(journal_path(out_dir), journal_header(spec, cells_total))) {}

void CheckpointJournal::append(const CellResult& result) {
    writer_.append_line(cell_record_to_json(result).dump());
}

void write_journal(const std::string& out_dir, const CampaignSpec& spec,
                   std::size_t cells_total, std::span<const CellResult> results) {
    std::string text = journal_header(spec, cells_total).dump() + "\n";
    for (const CellResult& result : results) {
        text += cell_record_to_json(result).dump();
        text += '\n';
    }
    support::atomic_write(journal_path(out_dir), text);
}

CellResult parse_cell_record(const json::Value& record, const std::vector<CampaignCell>& grid,
                             const std::string& path) {
    // One field's read: a field missing, or of the wrong type, makes the
    // record corrupt. Each check follows the read it needs.
    const auto read = [&path](auto field) {
        try {
            return field();
        } catch (const support::Error& e) {
            reject(path, std::string("corrupt record: ") + e.what());
        }
    };
    const std::string schema =
        read([&] { return record.get_or("schema", std::string("<missing>")); });
    if (schema != kCellRecordSchema) {
        reject(path, "unexpected record schema '" + schema + "'");
    }
    const auto index = static_cast<std::size_t>(
        read([&] { return record.at("cell_index").as_int("cell_index"); }));
    if (index >= grid.size()) {
        reject(path, "cell index " + std::to_string(index) + " out of range (grid has " +
                         std::to_string(grid.size()) + " cells)");
    }
    const CampaignCell& cell = grid[index];
    const std::string digest =
        read([&] { return record.at("config_digest").as_string("config_digest"); });
    if (digest != cell_digest(cell)) {
        reject(path, "cell " + std::to_string(index) + " config digest mismatch (journal " +
                         digest + ", re-expanded grid " + cell_digest(cell) + ")");
    }
    const std::string id =
        read([&] { return record.at("experiment_id").as_string("experiment_id"); });
    if (id != cell.config.experiment_id) {
        reject(path, "cell " + std::to_string(index) + " experiment id mismatch ('" + id +
                         "' vs '" + cell.config.experiment_id + "')");
    }
    CellResult result;
    result.cell = cell;
    result.outcome = read([&] { return outcome_from_json(record.at("outcome")); });
    result.wall_seconds = read([&] { return record.get_or("wall_seconds", 0.0); });
    return result;
}

std::size_t journal_progress(const std::string& path, const CampaignSpec& spec,
                             std::size_t cells_total) {
    LogReader reader(path, kJournalSchema, spec_digest(spec), cells_total);
    std::size_t records = 0;
    try {
        // Only complete lines count: a torn final fragment (kill
        // mid-append) is not a completed record — counting it would let
        // an almost-finished crashed run masquerade as complete.
        records = reader.read().size();
    } catch (const support::ConfigError&) {
        if (reader.header_seen()) throw;  // this campaign's journal, damaged
        return 0;                         // another campaign's, or no header
    }
    // A journal with a record per cell is a finished run: rerunning
    // reproduces it, nothing is lost by truncation.
    return records < cells_total ? records : 0;
}

namespace {

/// The journal layer over a whole log's records: each validated against
/// the grid, and no cell twice.
std::vector<CellResult> cells_from_records(const std::vector<json::Value>& records,
                                           const std::vector<CampaignCell>& grid,
                                           const std::string& path) {
    std::vector<CellResult> cells;
    std::vector<bool> seen(grid.size(), false);
    for (const json::Value& record : records) {
        CellResult result = parse_cell_record(record, grid, path);
        const std::size_t index = result.cell.index;
        if (seen[index]) {
            reject(path, "cell " + std::to_string(index) + " recorded twice");
        }
        seen[index] = true;
        cells.push_back(std::move(result));
    }
    return cells;
}

}  // namespace

LoadedJournal load_journal(const std::string& path, const CampaignSpec& spec,
                           const std::vector<CampaignCell>& grid) {
    const LoadedLog log = load_log(path, kJournalSchema, spec_digest(spec), grid.size());
    return LoadedJournal{cells_from_records(log.records, grid, path), log.dropped_torn_tail};
}

ResumedJournal resume_journal(const std::string& out_dir, const CampaignSpec& spec,
                              const std::vector<CampaignCell>& grid) {
    const std::string path = journal_path(out_dir);
    ResumedLog log = resume_log(path, kJournalSchema, spec_digest(spec), grid.size());
    LoadedJournal loaded{cells_from_records(log.records, grid, path), log.dropped_torn_tail};
    return ResumedJournal{std::move(loaded), CheckpointJournal(std::move(log.writer))};
}

}  // namespace sdl::campaign
