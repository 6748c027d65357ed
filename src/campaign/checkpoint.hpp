// Campaign checkpointing: durable logs that make campaign execution
// fault-tolerant (resume after a crash).
//
// A *log* is a JSONL file: one header line (schema, spec digest, cell
// count), then one record per line, each appended by a single write
// (support::AppendWriter). A kill can leave only an unterminated last
// line, the *torn tail*. This file owns the format: start_log starts a
// log, LogReader reads one incrementally, resume_log reopens one after a
// crash. A complete line that does not parse fails the
// reader loudly, naming the file; a torn tail is dropped.
//
// Two kinds of log are built on it. The cell journal: as each cell
// finishes, its completion hook appends one self-describing record
// ("sdlbench.cell_result.v1") to <out_dir>/cells.jsonl under a
// "sdlbench.campaign_journal.v1" header, so a killed run preserves every
// completed cell; loading validates every record against its re-expanded
// grid cell. The fleet (fleet.hpp) writes the same journal per worker,
// fuses them into one whole-grid journal when it finishes
// (write_journal), and keeps its coordinator ledger as a second log.
//
// Everything journaled is modeled time in native units (seconds), and
// both the journal and the reports serialize doubles in shortest
// round-trip form — so a resumed or fleet-run campaign.json is
// byte-identical to an uninterrupted single run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "support/atomic_io.hpp"
#include "support/json.hpp"

namespace sdl::campaign {

inline constexpr std::string_view kJournalSchema = "sdlbench.campaign_journal.v1";
inline constexpr std::string_view kCellRecordSchema = "sdlbench.cell_result.v1";

/// <out_dir>/cells.jsonl — where a campaign run keeps its journal.
[[nodiscard]] std::string journal_path(const std::string& out_dir);

/// Digest of the normalized spec (FNV-1a 64 over its canonical YAML
/// form). A journal may be resumed under a spec exactly when their
/// digests agree.
[[nodiscard]] std::string spec_digest(const CampaignSpec& spec);

/// Digest of one expanded cell's fully resolved config — the per-record
/// guard that a journal entry still matches the re-expanded grid.
[[nodiscard]] std::string cell_digest(const CampaignCell& cell);

// ------------------------------------------------------------------ logs

/// Starts a log at `path`: `header` written atomically, replacing any
/// previous file; the returned writer appends the records.
[[nodiscard]] support::AppendWriter start_log(const std::string& path,
                                              const support::json::Value& header);

/// Reads a log as it grows, from where its last read stopped.
class LogReader {
public:
    /// The header must carry `schema`, `digest` as its spec_digest and
    /// `cells_total`; keys it does not know are ignored, so headers from
    /// older builds still load.
    LogReader(std::string path, std::string_view schema, std::string digest,
              std::size_t cells_total);

    /// The records completed since the last read, parsed, in file order
    /// (none while the file is missing). The first complete line is the
    /// header: checked once, never returned. An unterminated remainder
    /// (an append in flight, or a dead writer's torn tail) waits. Throws
    /// ConfigError naming the file on a header mismatch or a complete
    /// line that does not parse.
    [[nodiscard]] std::vector<support::json::Value> read();

    [[nodiscard]] bool header_seen() const noexcept { return header_seen_; }
    /// Bytes after the last complete line, as of the last read.
    [[nodiscard]] std::size_t remainder() const noexcept { return remainder_; }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    void check_header(std::string_view line) const;

    std::string path_;
    std::string schema_;
    std::string digest_;
    std::size_t cells_total_;
    std::size_t offset_ = 0;  ///< bytes of the complete lines read
    std::size_t lines_ = 0;   ///< complete lines read, for error messages
    std::size_t remainder_ = 0;
    bool header_seen_ = false;
};

/// A log reopened to continue after a crash.
struct ResumedLog {
    std::vector<support::json::Value> records;  ///< every complete one
    bool dropped_torn_tail = false;
    support::AppendWriter writer;
};

/// Reads the log at `path` whole (LogReader's checks, and ConfigError
/// when it has no complete header line: missing, empty or torn), cuts a
/// torn tail from the file so the next record cannot glue onto it, and
/// reopens the log for append.
[[nodiscard]] ResumedLog resume_log(const std::string& path, std::string_view schema,
                                    const std::string& digest, std::size_t cells_total);

// --------------------------------------------------------------- journal

/// The journal header record (first line of cells.jsonl).
[[nodiscard]] support::json::Value journal_header(const CampaignSpec& spec,
                                                  std::size_t cells_total);

/// One finished cell as a self-describing journal record: cell index,
/// experiment id, config digest, host wall seconds, and the full outcome
/// in native (seconds) units so it reconstructs losslessly.
[[nodiscard]] support::json::Value cell_record_to_json(const CellResult& result);

/// Validates one parsed cell record against the re-expanded grid: record
/// schema, cell index range, per-cell config digest, and experiment id
/// must all match, and every field must be present with its type
/// (ConfigError naming `path` otherwise). Duplicates are the caller's to
/// catch.
[[nodiscard]] CellResult parse_cell_record(const support::json::Value& record,
                                           const std::vector<CampaignCell>& grid,
                                           const std::string& path);

/// Append side of the journal.
class CheckpointJournal {
public:
    /// Starts a fresh journal in `out_dir` (start_log), truncating any
    /// previous one.
    CheckpointJournal(const std::string& out_dir, const CampaignSpec& spec,
                      std::size_t cells_total);
    /// Continues a resumed journal (resume_journal).
    explicit CheckpointJournal(support::AppendWriter writer);

    /// Appends one cell record (single O_APPEND write + fdatasync).
    void append(const CellResult& result);

private:
    support::AppendWriter writer_;
};

/// Writes `results` (index-sorted) to `out_dir` as one whole journal,
/// atomically: the fleet's fused journal, which `sdlbench_run --resume`
/// accepts like any other.
void write_journal(const std::string& out_dir, const CampaignSpec& spec,
                   std::size_t cells_total, std::span<const CellResult> results);

/// A validated journal, ready to resume from.
struct LoadedJournal {
    /// Validated cells in journal (completion) order, each reattached to
    /// its re-expanded CampaignCell.
    std::vector<CellResult> cells;
    /// True when a torn final line (kill mid-append) was discarded.
    bool dropped_torn_tail = false;
};

/// Number of cell records in the journal at `path` IF it belongs to
/// `spec` and its `cells_total`-cell grid and is an *incomplete* run —
/// progress a fresh run would destroy; 0 otherwise (a missing file, a
/// foreign spec, an unreadable header, a finished run). Throws when a
/// complete line of this spec's journal does not parse (LogReader). The
/// guard against truncating real progress when `--resume` was forgotten.
[[nodiscard]] std::size_t journal_progress(const std::string& path, const CampaignSpec& spec,
                                           std::size_t cells_total);

/// Reads `path` whole (as resume_log does, read-only) and validates it
/// against the re-expanded `grid` of `spec`: ConfigError on a record parse_cell_record rejects
/// or a duplicate cell index. A torn tail is dropped (dropped_torn_tail).
[[nodiscard]] LoadedJournal load_journal(const std::string& path, const CampaignSpec& spec,
                                         const std::vector<CampaignCell>& grid);

/// A journal reopened after a crash, to append the cells still owed.
struct ResumedJournal {
    LoadedJournal loaded;
    CheckpointJournal journal;
};

/// Resumes the journal in `out_dir`: resume_log, validated like
/// load_journal. How `sdlbench_run --resume` continues a killed run.
[[nodiscard]] ResumedJournal resume_journal(const std::string& out_dir,
                                            const CampaignSpec& spec,
                                            const std::vector<CampaignCell>& grid);

}  // namespace sdl::campaign
