// Fleet execution: a work-stealing multi-process campaign orchestrator
// with live merge.
//
// One coordinator process expands the grid once, orders cells by the
// cost model (cost_model.hpp, longest-expected-first), and leases slices
// of that order to N worker processes over a line protocol on the
// workers' stdin/stdout pipes (support/subprocess.hpp):
//
//   worker -> coordinator:  "hello"         ready, lease me work
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
// Every scheduling and failure decision — lease order and size, refills
// and top-ups, crash blame, quarantine, respawn backoff and budget, the
// heartbeat timeout — belongs to the pure campaign::Coordinator
// (coordinator.hpp); run_fleet is the IO shell that reports events to it
// and carries out its answers. Leases are dealt off the front of the
// remaining cost-ordered queue and sized by expected cost, so the grid's
// biggest cells start first on separate workers, fast workers drain the
// queue, and a straggler holds at most one running and one queued cell.
// A worker silent past the heartbeat timeout (30 s) is SIGKILLed (it
// must not journal a re-leased cell later); on EOF or kill the
// coordinator reads the dead worker's journal tail — acknowledged AND
// journaled-but-unacked cells are salvaged, never recomputed — and
// returns only the truly incomplete cells to the queue front. The
// report's difficulty probes (one per generated seed) run on a
// coordinator side thread started before the first spawn, beside the
// workers rather than inside the poll loop; live merges wait until they
// finish and the final merge joins them.
//
// Determinism: a cell's outcome depends only on its resolved config,
// execution order is decoupled from result order, and the final report
// is written from index-sorted results — so campaign.json is
// byte-identical to a single-process uninterrupted run, including when
// workers are SIGKILLed mid-campaign. Duplicates stay loud end to end
// (Coordinator::complete throws on a twice-completed cell).
//
// Self-healing (docs/ROBUSTNESS.md): dead workers are respawned into
// fresh per-incarnation directories with capped exponential backoff
// instead of shrinking the pool; a cell that kills 3 distinct worker
// incarnations is quarantined (reported in campaign.json, never
// re-leased); and every spawn/crash/quarantine is written ahead to a
// fsync'd coordinator ledger (coordinator.jsonl, a log in the
// checkpoint.hpp format) so `sdlbench_fleet --resume <dir>` can restart
// a killed coordinator by replaying the ledger plus the worker
// journals through the Coordinator — still
// byte-identical to an uninterrupted run. Fault injection for all of
// this rides on support/failpoint.hpp sites rather than bespoke chaos
// flags; the policy is constants in coordinator.cpp, not options.
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

[[nodiscard]] std::string format_hello();
[[nodiscard]] std::string format_beat();
[[nodiscard]] std::string format_ack(std::size_t cell);
[[nodiscard]] std::string format_lease(const std::vector<std::size_t>& cells);
[[nodiscard]] std::string format_stop();

// ------------------------------------------------------------ coordinator

struct FleetOptions {
    /// Worker processes (capped at the cell count).
    std::size_t workers = 3;
    /// SDLBENCH_WORKERS for each worker's in-process pool; 0 = divide
    /// the hardware evenly among the workers the run starts (at most one
    /// per open cell) so workers get disjoint core budgets instead of
    /// each oversubscribing the host.
    std::size_t worker_threads = 0;
    /// Path to the sdlbench_fleet binary to exec as workers (argv[0]).
    std::string worker_exe;
    /// Failpoint schedules injected into workers via SDLBENCH_FAILPOINTS
    /// (the coordinator always sets that variable for its children, so
    /// its own environment never leaks into them). slot >= 0 applies to
    /// generation 0 of that slot only — respawns come up clean, which is
    /// how the respawn path is tested — and must be a slot the fleet
    /// spawns (run_fleet throws ConfigError otherwise); slot == -1 ("*")
    /// applies to every incarnation, which is how crash loops are
    /// provoked.
    struct WorkerFailpoint {
        int slot = -1;
        std::string spec;
    };
    std::vector<WorkerFailpoint> worker_failpoints;
    /// Restart a killed coordinator from out_dir's coordinator.jsonl
    /// ledger + worker journals instead of demanding a clean directory.
    bool resume = false;
};

struct FleetSummary {
    std::size_t cells = 0;
    std::size_t workers_started = 0;  ///< slots that spawned in this run
    std::size_t workers_lost = 0;     ///< died or declared hung
    std::size_t workers_respawned = 0;  ///< a slot's later spawns in this run
    std::size_t cells_salvaged = 0;   ///< journaled by a dead worker, unacked
    std::size_t cells_releases = 0;   ///< re-leased after a worker loss
    std::size_t cells_quarantined = 0;
    double makespan_s = 0.0;          ///< coordinator wall time
    /// Sum of per-cell worker wall time over the cells this run computed
    /// (cells a resume replays from journals add nothing).
    double busy_s = 0.0;
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
};

/// The worker-mode main loop: leases in on stdin, acks out on stdout,
/// results into <dir>/cells.jsonl. Returns a process exit code (0 on a
/// clean stop/EOF drain).
int run_fleet_worker(const FleetWorkerOptions& options);

}  // namespace sdl::campaign
