// Fleet execution: a work-stealing multi-process campaign orchestrator
// with live merge.
//
// One coordinator process expands the grid once, orders cells by the
// cost model (cost_model.hpp, longest-expected-first), and leases slices
// of that order to N worker processes over a line protocol on the
// workers' stdin/stdout pipes (support/subprocess.hpp):
//
//   worker -> coordinator:  "hello <pid>"   ready, lease me work
//                           "beat"          heartbeat (side thread)
//                           "ack <cell>"    cell journaled durably
//   coordinator -> worker:  "lease <cell> [<cell>...]"
//                           "stop"          drain and exit
//
// Every worker appends finished cells to its own digest-validated
// journal (campaign/checkpoint.hpp, whole-grid header) and sends "ack"
// only after the fdatasync'd append — so the ack means "this result
// survives my death". The coordinator tails worker journals as acks
// arrive (the journal, not the pipe, carries result payloads: one
// source of truth) and merges continuously — campaign.json/campaign.csv
// are rewritten atomically during the run, so aggregates are live.
//
// Dynamic balance instead of static shards: leases are dealt off the
// front of the remaining cost-ordered queue and shrink adaptively
// (LeaseTable::suggested_lease), so fast workers drain the queue while
// a straggler holds at most one running and one queued cell. A worker
// that goes quiet past the heartbeat timeout is SIGKILLed (it must not
// be allowed to journal a re-leased cell later); on EOF or kill the
// coordinator reads the dead worker's journal tail — acknowledged AND
// journaled-but-unacked cells are salvaged, never recomputed — and
// returns only the truly incomplete cells to the queue front.
//
// Determinism: a cell's outcome depends only on its resolved config,
// execution order is decoupled from result order, and the final report
// is written from index-sorted results — so campaign.json is
// byte-identical to a single-process uninterrupted run, including when
// workers are SIGKILLed mid-campaign. Duplicates stay loud end to end
// (LeaseTable::complete throws on a twice-completed cell).
//
// Self-healing (docs/ROBUSTNESS.md): dead workers are respawned into
// fresh per-incarnation directories with capped exponential backoff
// instead of shrinking the pool; a cell that kills `quarantine_after`
// distinct worker incarnations is quarantined (reported in
// campaign.json, never re-leased); and every spawn/crash/quarantine is
// written ahead to a fsync'd coordinator ledger (coordinator.jsonl) so
// `sdlbench_fleet --resume <dir>` can restart a killed coordinator from
// the ledger plus the worker journals — still byte-identical to an
// uninterrupted run. Fault injection for all of this rides on
// support/failpoint.hpp sites rather than bespoke chaos flags.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"

namespace sdl::campaign {

// --------------------------------------------------------------- protocol

enum class WorkerMsgKind { Hello, Beat, Ack };
struct WorkerMessage {
    WorkerMsgKind kind = WorkerMsgKind::Beat;
    long pid = 0;          ///< Hello
    std::size_t cell = 0;  ///< Ack
};

enum class CoordMsgKind { Lease, Stop };
struct CoordMessage {
    CoordMsgKind kind = CoordMsgKind::Stop;
    std::vector<std::size_t> cells;  ///< Lease
};

/// Parse one protocol line; nullopt on anything malformed (the receiver
/// treats that as a protocol error and drops the peer loudly).
[[nodiscard]] std::optional<WorkerMessage> parse_worker_line(const std::string& line);
[[nodiscard]] std::optional<CoordMessage> parse_coordinator_line(const std::string& line);

[[nodiscard]] std::string format_hello(long pid);
[[nodiscard]] std::string format_beat();
[[nodiscard]] std::string format_ack(std::size_t cell);
[[nodiscard]] std::string format_lease(const std::vector<std::size_t>& cells);
[[nodiscard]] std::string format_stop();

// ------------------------------------------------------------ coordinator

struct FleetOptions {
    /// Worker processes (capped at the cell count).
    std::size_t workers = 3;
    /// SDLBENCH_WORKERS for each worker's in-process pool; 0 = divide
    /// the hardware evenly (max(1, hw / workers)) so workers get
    /// disjoint core budgets instead of each oversubscribing the host.
    std::size_t worker_threads = 0;
    /// A worker silent this long (no ack/beat/hello) is declared hung,
    /// SIGKILLed, and its incomplete cells are re-leased.
    double heartbeat_timeout_s = 30.0;
    /// Worker-side beat period.
    double heartbeat_interval_s = 0.25;
    /// Rewrite campaign.json/csv after this many completed cells
    /// (live merge); the final write always happens.
    std::size_t merge_every = 1;
    /// Hard cap on cells per lease; 0 = adaptive only.
    std::size_t max_lease = 0;
    /// Path to the sdlbench_fleet binary to exec as workers (argv[0]).
    std::string worker_exe;
    /// Print per-cell progress and worker lifecycle lines.
    bool log_progress = true;
    /// Fault injection for the crash-recovery tests: worker
    /// `chaos_kill_worker` raises SIGKILL on itself right after its
    /// `chaos_kill_after`-th journal append — after the record is
    /// durable, before the ack leaves. -1 disables. Sugar for a
    /// worker_failpoints entry `worker.pre_ack_kill=kill@N#1`.
    int chaos_kill_worker = -1;
    std::size_t chaos_kill_after = 0;
    /// Failpoint schedules injected into workers via SDLBENCH_FAILPOINTS
    /// (the coordinator always sets that variable for its children, so
    /// its own environment never leaks into them). slot >= 0 applies to
    /// generation 0 of that slot only — respawns come up clean, which is
    /// how the respawn path is tested; slot == -1 ("*") applies to every
    /// incarnation, which is how crash loops are provoked.
    struct WorkerFailpoint {
        int slot = -1;
        std::string spec;
    };
    std::vector<WorkerFailpoint> worker_failpoints;
    /// A cell that has crashed this many DISTINCT worker incarnations is
    /// quarantined: removed from the schedule and reported in
    /// campaign.json with its crash history.
    std::size_t quarantine_after = 3;
    /// Per-slot respawn budget; a slot that exhausts it is retired.
    std::size_t max_respawns = 8;
    /// Respawn backoff: min(cap, base * 2^consecutive_crashes). The
    /// streak resets on any successful ack from that slot.
    double respawn_backoff_s = 0.25;
    double respawn_backoff_cap_s = 5.0;
    /// Restart a killed coordinator from out_dir's coordinator.jsonl
    /// ledger + worker journals instead of demanding a clean directory.
    bool resume = false;
};

struct FleetSummary {
    std::size_t cells = 0;
    std::size_t workers_started = 0;
    std::size_t workers_lost = 0;     ///< died or declared hung
    std::size_t workers_respawned = 0;
    std::size_t cells_salvaged = 0;   ///< journaled by a dead worker, unacked
    std::size_t cells_releases = 0;   ///< re-leased after a worker loss
    std::size_t cells_quarantined = 0;
    double makespan_s = 0.0;          ///< coordinator wall time
    double busy_s = 0.0;              ///< sum of per-cell worker wall time
    /// busy_s / (makespan_s * workers_started) — 1.0 is a perfectly
    /// packed schedule.
    double efficiency = 0.0;
};

struct FleetResult {
    FleetSummary summary;
    /// All completed cells, index-sorted — the same vector a
    /// single-process run produces (minus any quarantined cells).
    std::vector<CellResult> results;
    /// Crash-loop-contained cells with their crash histories; empty on
    /// a healthy run.
    std::vector<QuarantinedCell> quarantined;
};

/// Runs the campaign at `spec_path` across worker processes, writing
/// campaign.json/campaign.csv (live + final) and a fused whole-grid
/// cells.jsonl to `out_dir`. Throws on an unrecoverable failure (spec
/// errors, all workers lost, duplicate cell execution).
FleetResult run_fleet(const std::string& spec_path, const std::string& out_dir,
                      const FleetOptions& options);

// ----------------------------------------------------------------- worker

struct FleetWorkerOptions {
    std::string campaign_path;
    std::string dir;            ///< this worker's journal directory
    std::string expect_digest;  ///< coordinator's spec digest (must match)
    double heartbeat_interval_s = 0.25;
};

/// The worker-mode main loop: leases in on stdin, acks out on stdout,
/// results into <dir>/cells.jsonl. Returns a process exit code (0 on a
/// clean stop/EOF drain).
int run_fleet_worker(const FleetWorkerOptions& options);

}  // namespace sdl::campaign
