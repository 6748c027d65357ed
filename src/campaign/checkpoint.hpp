// Campaign checkpointing: a durable per-cell journal that makes campaign
// execution fault-tolerant (resume after a crash).
//
// As each cell finishes, CampaignRunner's completion hook appends one
// self-describing JSONL record ("sdlbench.cell_result.v1") to
// <out_dir>/cells.jsonl through support::AppendWriter, so a killed run
// preserves every completed cell. The journal opens with a header record
// ("sdlbench.campaign_journal.v1") carrying a digest of the normalized
// campaign spec and the grid's cell count; loading re-expands the grid,
// rejects digest mismatches loudly, validates every record against its
// expanded cell, and drops a torn final line (the only damage a kill can
// inflict, by the O_APPEND one-write-per-record discipline). The fleet
// (fleet.hpp) writes the same journal per worker, and fuses them into one
// whole-grid journal when it finishes.
//
// Everything journaled is modeled time in native units (seconds), and
// both the journal and the reports serialize doubles in shortest
// round-trip form — so a resumed or fleet-run campaign.json is
// byte-identical to an uninterrupted single run.
#pragma once

#include <cstdint>
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

/// The journal header record (first line of cells.jsonl).
[[nodiscard]] support::json::Value journal_header(const CampaignSpec& spec,
                                                  std::size_t cells_total);

/// One finished cell as a self-describing journal record: cell index,
/// experiment id, config digest, host wall seconds, and the full outcome
/// in native (seconds) units so it reconstructs losslessly.
[[nodiscard]] support::json::Value cell_record_to_json(const CellResult& result);

/// Append side of the journal. Construction starts a fresh journal
/// (header written atomically, truncating any previous one); reopen()
/// continues an existing, already-compacted journal after a resume.
class CheckpointJournal {
public:
    CheckpointJournal(const std::string& out_dir, const CampaignSpec& spec,
                      std::size_t cells_total);

    [[nodiscard]] static CheckpointJournal reopen(const std::string& out_dir);

    /// Appends one cell record (single O_APPEND write + flush).
    void append(const CellResult& result);

private:
    explicit CheckpointJournal(support::AppendWriter writer);

    support::AppendWriter writer_;
};

/// A validated journal, ready to resume from.
struct LoadedJournal {
    /// Validated cells in journal (completion) order, each reattached to
    /// its re-expanded CampaignCell.
    std::vector<CellResult> cells;
    /// True when a torn final line (kill mid-append) was discarded.
    bool dropped_torn_tail = false;
    /// Header + every valid record line — rewrite these (atomically) to
    /// compact a torn journal before appending to it again.
    std::vector<std::string> lines;
};

/// Parses and validates a journal header line against `spec` (schema +
/// spec digest) and the expanded grid size. Throws ConfigError naming
/// `path` on any mismatch. Keys it does not know are ignored, so headers
/// from older builds still load. The header half of load_journal,
/// exposed for incremental readers (the fleet coordinator tails worker
/// journals line by line as acks arrive).
void validate_journal_header(std::string_view line, const CampaignSpec& spec,
                             std::size_t grid_cells, const std::string& path);

/// Parses and validates one cell record line against the re-expanded
/// grid: record schema, cell index range, per-cell config digest, and
/// experiment id must all match. Throws ConfigError naming `path` on a
/// validation failure and Error("json") on corrupt JSON. The duplicate
/// check remains the caller's (it needs cross-record state). The record
/// half of load_journal, exposed for the same incremental readers.
[[nodiscard]] CellResult parse_cell_record(std::string_view line,
                                           const std::vector<CampaignCell>& grid,
                                           const std::string& path);

/// Number of cell records in the journal at `path` IF it belongs to
/// `spec` (header parses, spec digest matches) and is an *incomplete*
/// run — i.e. progress a fresh run would destroy; 0 otherwise. A
/// missing file, a foreign spec, an unreadable header, and a journal
/// with a record for every cell (a finished run, safe to redo) all count
/// as "nothing to protect". The cheap guard `sdlbench_run` uses to
/// refuse to truncate real progress when `--resume` was forgotten.
[[nodiscard]] std::size_t journal_progress(const std::string& path,
                                           const CampaignSpec& spec) noexcept;

/// Reads and validates `path` against the re-expanded `grid` of `spec`.
/// Loud failures (ConfigError): spec-digest or cell-count mismatch,
/// schema mismatch, a record whose config digest or experiment id does
/// not match its grid cell, a duplicate cell index, or a corrupt record
/// that is not the torn final line. The torn final line of a killed run
/// is silently dropped (reported via dropped_torn_tail).
[[nodiscard]] LoadedJournal load_journal(const std::string& path,
                                         const CampaignSpec& spec,
                                         const std::vector<CampaignCell>& grid);

}  // namespace sdl::campaign
