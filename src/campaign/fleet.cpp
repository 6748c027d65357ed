#include "campaign/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/lease.hpp"
#include "campaign/report.hpp"
#include "core/colorpicker.hpp"
#include "support/atomic_io.hpp"
#include "support/channel.hpp"
#include "support/common.hpp"
#include "support/csv.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/subprocess.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace sdl::campaign {

namespace {

// sdlbench-lint: allow(steady-clock): heartbeat deadlines and makespan are operational wall time, never report bytes
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Splits on single spaces; strict (no empty tokens) so a malformed
/// frame never half-parses.
std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= line.size()) {
        const std::size_t space = line.find(' ', start);
        if (space == std::string::npos) {
            tokens.push_back(line.substr(start));
            break;
        }
        tokens.push_back(line.substr(start, space - start));
        start = space + 1;
    }
    return tokens;
}

std::optional<std::size_t> parse_index(const std::string& token) {
    if (token.empty() || token.size() > 18) return std::nullopt;
    std::size_t value = 0;
    for (const char c : token) {
        if (c < '0' || c > '9') return std::nullopt;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
}

}  // namespace

// --------------------------------------------------------------- protocol

std::optional<WorkerMessage> parse_worker_line(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return std::nullopt;
    WorkerMessage msg;
    if (tokens[0] == "beat" && tokens.size() == 1) {
        msg.kind = WorkerMsgKind::Beat;
        return msg;
    }
    if (tokens[0] == "hello" && tokens.size() == 2) {
        const auto pid = parse_index(tokens[1]);
        if (!pid) return std::nullopt;
        msg.kind = WorkerMsgKind::Hello;
        msg.pid = static_cast<long>(*pid);
        return msg;
    }
    if (tokens[0] == "ack" && tokens.size() == 2) {
        const auto cell = parse_index(tokens[1]);
        if (!cell) return std::nullopt;
        msg.kind = WorkerMsgKind::Ack;
        msg.cell = *cell;
        return msg;
    }
    return std::nullopt;
}

std::optional<CoordMessage> parse_coordinator_line(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return std::nullopt;
    CoordMessage msg;
    if (tokens[0] == "stop" && tokens.size() == 1) {
        msg.kind = CoordMsgKind::Stop;
        return msg;
    }
    if (tokens[0] == "lease" && tokens.size() >= 2) {
        msg.kind = CoordMsgKind::Lease;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const auto cell = parse_index(tokens[i]);
            if (!cell) return std::nullopt;
            msg.cells.push_back(*cell);
        }
        return msg;
    }
    return std::nullopt;
}

std::string format_hello(long pid) { return "hello " + std::to_string(pid); }
std::string format_beat() { return "beat"; }
std::string format_ack(std::size_t cell) { return "ack " + std::to_string(cell); }

std::string format_lease(const std::vector<std::size_t>& cells) {
    support::check(!cells.empty(), "a lease must carry at least one cell");
    std::string line = "lease";
    for (const std::size_t cell : cells) {
        line += ' ';
        line += std::to_string(cell);
    }
    return line;
}

std::string format_stop() { return "stop"; }

// ------------------------------------------------------------ coordinator

namespace {

namespace json = support::json;

/// One worker slot. The slot outlives process deaths: each respawn gets
/// a fresh incarnation (process + journal directory) while the slot
/// keeps the crash/backoff bookkeeping.
struct WorkerState {
    int slot = 0;
    int generation = -1;    ///< -1 = never spawned; spawn pre-increments
    long incarnation = -1;  ///< unique per spawned process (ledger-sequenced)
    std::string dir;
    support::ChildProcess proc;
    support::LineBuffer lines;
    Clock::time_point last_heard;
    std::size_t journal_offset = 0;
    bool header_seen = false;
    bool hello_seen = false;
    bool alive = false;
    bool send_failed = false;
    // Respawn bookkeeping (slot-lifetime, not incarnation-lifetime).
    std::size_t respawns_used = 0;
    std::size_t crash_streak = 0;  ///< backoff exponent; reset on any ack
    std::optional<Clock::time_point> respawn_at;
    bool retired = false;  ///< respawn budget exhausted
};

/// Kills and reaps every still-running child no matter how run_fleet
/// exits — early throws (spec errors, duplicate cells, all workers
/// lost) included — so no zombie outlives the coordinator.
struct ReapGuard {
    std::vector<WorkerState>& workers;
    ~ReapGuard() {
        for (WorkerState& w : workers) {
            if (!w.alive) continue;
            support::kill_hard(w.proc);
            (void)support::wait_exit(w.proc);
            w.proc.close_pipes();
            w.alive = false;
        }
    }
};

// ------------------------------------------------- coordinator ledger

std::string ledger_path(const std::string& out_dir) {
    return out_dir + "/coordinator.jsonl";
}

/// Write-ahead ledger of coordinator decisions (spawns, crash blames,
/// quarantines), one fsync'd JSONL record each — the durable state a
/// killed coordinator is resumed from (worker journals carry the
/// results; the ledger says where they live and what was convicted).
/// Removed on successful completion; its presence marks a crashed run.
class CoordinatorLedger {
public:
    /// Writes `prefix_text` (header, plus retained events on resume)
    /// atomically, then switches to append mode.
    void open(const std::string& out_dir, const std::string& prefix_text) {
        path_ = ledger_path(out_dir);
        support::atomic_write(path_, prefix_text);
        writer_.emplace(path_);
    }
    void append(const json::Value& event) { writer_->append_line(event.dump()); }
    void remove() {
        writer_.reset();
        std::error_code ignored;
        std::filesystem::remove(path_, ignored);
    }

private:
    std::string path_;
    std::optional<support::AppendWriter> writer_;
};

struct LedgerSpawn {
    int slot = 0;
    int generation = 0;
    long incarnation = 0;
    long pid = 0;
    std::string dir;
};
struct LedgerCrash {
    std::size_t cell = 0;
    int slot = 0;
    int generation = 0;
    long incarnation = 0;
    long pid = 0;
    std::string reason;
};
struct LedgerState {
    std::string spec_digest;
    std::size_t cells_total = 0;
    std::vector<LedgerSpawn> spawns;
    std::vector<LedgerCrash> crashes;
    std::vector<std::size_t> quarantines;
    /// Every event line that parsed, verbatim — rewritten into the
    /// compacted ledger on resume so a resume-of-a-resume still knows
    /// every journal directory and conviction.
    std::vector<std::string> raw_events;
};

/// Loads a coordinator ledger, tolerating a torn tail (each record is
/// one fsync'd write, so only the final line can be incomplete — it is
/// dropped, like the cell journals' torn-tail recovery).
LedgerState load_ledger(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        throw support::ConfigError("cannot read coordinator ledger '" + path + "'");
    }
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    LedgerState state;
    bool header_seen = false;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) break;  // torn tail: drop
        const std::string line = text.substr(start, nl - start);
        start = nl + 1;
        if (line.empty()) continue;
        json::Value doc;
        try {
            doc = json::parse(line);
        } catch (const support::Error&) {
            break;  // unreadable line: treat as the torn tail, keep what stands
        }
        if (!header_seen) {
            if (doc.get_or("schema", std::string()) != "sdlbench.coordinator_journal.v1") {
                throw support::ConfigError("'" + path +
                                           "' is not a coordinator ledger (bad schema)");
            }
            state.spec_digest = doc.at("spec_digest").as_string();
            state.cells_total = static_cast<std::size_t>(doc.at("cells_total").as_int());
            header_seen = true;
            continue;
        }
        const std::string event = doc.get_or("event", std::string());
        if (event == "spawn") {
            state.spawns.push_back({static_cast<int>(doc.at("slot").as_int()),
                                    static_cast<int>(doc.at("generation").as_int()),
                                    doc.at("incarnation").as_int(), doc.at("pid").as_int(),
                                    doc.at("dir").as_string()});
        } else if (event == "crash") {
            state.crashes.push_back({static_cast<std::size_t>(doc.at("cell").as_int()),
                                     static_cast<int>(doc.at("slot").as_int()),
                                     static_cast<int>(doc.at("generation").as_int()),
                                     doc.at("incarnation").as_int(), doc.at("pid").as_int(),
                                     doc.at("reason").as_string()});
        } else if (event == "quarantine") {
            state.quarantines.push_back(
                static_cast<std::size_t>(doc.at("cell").as_int()));
        }  // unknown events: skip (forward compatibility)
        state.raw_events.push_back(line);
    }
    if (!header_seen) {
        throw support::ConfigError("coordinator ledger '" + path +
                                   "' has no intact header — nothing to resume");
    }
    return state;
}

}  // namespace

FleetResult run_fleet(const std::string& spec_path, const std::string& out_dir,
                      const FleetOptions& options) {
    support::ignore_sigpipe();
    support::check(!options.worker_exe.empty(), "FleetOptions.worker_exe must be set");

    const CampaignSpec spec = campaign_from_file(spec_path);
    const std::vector<CampaignCell> grid = expand_grid(spec);
    const std::string digest = spec_digest(spec);

    // Same refusal as sdlbench_run: an incomplete journal for this very
    // spec in out_dir is a crashed run's progress; make the operator
    // decide, don't truncate.
    const std::size_t progress = journal_progress(journal_path(out_dir), spec);
    if (progress > 0) {
        throw support::ConfigError(
            "'" + out_dir + "' already holds a journal with " + std::to_string(progress) +
            " completed cell(s) for this campaign — resume it with `sdlbench_run "
            "--campaign ... --resume " + out_dir + "`, or delete " +
            journal_path(out_dir) + " to start over");
    }
    // A leftover coordinator ledger marks a fleet whose coordinator died
    // mid-campaign; demand an explicit decision rather than redoing (and
    // possibly duplicating) work the worker journals already hold.
    const bool ledger_exists = std::filesystem::exists(ledger_path(out_dir));
    if (ledger_exists && !options.resume) {
        throw support::ConfigError(
            "'" + out_dir + "' holds a coordinator ledger from an interrupted fleet "
            "run — resume it with `sdlbench_fleet --campaign ... --resume " + out_dir +
            "`, or delete " + ledger_path(out_dir) + " to start over");
    }
    if (options.resume && !ledger_exists) {
        throw support::ConfigError("--resume: no coordinator ledger at '" +
                                   ledger_path(out_dir) + "' — nothing to resume");
    }
    std::filesystem::create_directories(out_dir);

    const std::size_t n_workers =
        std::min(std::max<std::size_t>(1, options.workers), grid.size());
    std::size_t threads = options.worker_threads;
    if (threads == 0) {
        // Disjoint core budgets: divide the host instead of letting every
        // worker's in-process pool claim all of it.
        const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
        threads = std::max<std::size_t>(1, hw / n_workers);
    }

    // --chaos-kill is sugar for a generation-0 worker failpoint; every
    // schedule is parsed up front so a typo aborts before any spawn.
    std::vector<FleetOptions::WorkerFailpoint> worker_failpoints = options.worker_failpoints;
    if (options.chaos_kill_worker >= 0 && options.chaos_kill_after > 0) {
        worker_failpoints.push_back(
            {options.chaos_kill_worker,
             "worker.pre_ack_kill=kill@" + std::to_string(options.chaos_kill_after) +
                 "#1"});
    }
    for (const FleetOptions::WorkerFailpoint& wf : worker_failpoints) {
        (void)support::failpoint::parse(wf.spec);
    }

    LeaseTable table(grid.size(), schedule_order(grid));
    std::vector<std::optional<CellResult>> results(grid.size());
    std::vector<std::vector<CellCrash>> crash_log(grid.size());
    FleetSummary summary;
    summary.cells = grid.size();
    summary.workers_started = n_workers;

    std::vector<WorkerState> workers(n_workers);
    ReapGuard reaper{workers};
    long next_incarnation = 0;

    // Resume: rebuild coordinator state from the ledger plus the worker
    // journals it references. The journals are the source of truth for
    // results; the ledger contributes locations, crash history, and
    // quarantine convictions.
    std::string ledger_prefix;
    {
        json::Value header = json::Value::object();
        header.set("schema", "sdlbench.coordinator_journal.v1");
        header.set("spec_digest", digest);
        header.set("cells_total", static_cast<std::int64_t>(grid.size()));
        header.set("campaign_path", spec_path);
        ledger_prefix = header.dump() + "\n";
    }
    if (options.resume) {
        const LedgerState prior = load_ledger(ledger_path(out_dir));
        if (prior.spec_digest != digest) {
            throw support::ConfigError(
                "--resume: ledger spec digest " + prior.spec_digest +
                " does not match this campaign's digest " + digest +
                " — the resumed run must use the same spec");
        }
        if (prior.cells_total != grid.size()) {
            throw support::ConfigError("--resume: ledger records " +
                                       std::to_string(prior.cells_total) +
                                       " cells, campaign expands to " +
                                       std::to_string(grid.size()));
        }
#if !defined(_WIN32)
        // Orphans of the dead coordinator: best-effort SIGKILL by
        // recorded pid before reading their journals, so none can append
        // a record after we've drained it. A reused pid is possible but
        // the window is narrow (docs/ROBUSTNESS.md § Resume caveats).
        for (const LedgerSpawn& s : prior.spawns) {
            if (s.pid > 0) (void)::kill(static_cast<pid_t>(s.pid), SIGKILL);
        }
#endif
        const auto load_worker_journal = [&](const std::string& path) {
            std::ifstream file(path, std::ios::binary);
            if (!file) return;  // died before creating a journal
            const std::string text((std::istreambuf_iterator<char>(file)),
                                   std::istreambuf_iterator<char>());
            bool header_seen = false;
            std::size_t start = 0;
            while (start < text.size()) {
                const std::size_t nl = text.find('\n', start);
                if (nl == std::string::npos) break;  // torn tail: drop
                const std::string line = text.substr(start, nl - start);
                start = nl + 1;
                if (!header_seen) {
                    (void)validate_journal_header(line, spec, grid.size(), path);
                    header_seen = true;
                    continue;
                }
                CellResult record = parse_cell_record(line, grid, path);
                const std::size_t index = record.cell.index;
                table.complete(index);  // cross-journal duplicates stay loud
                summary.busy_s += record.wall_seconds;
                results[index] = std::move(record);
            }
        };
        for (const LedgerSpawn& s : prior.spawns) {
            load_worker_journal(journal_path(s.dir));
            next_incarnation = std::max(next_incarnation, s.incarnation + 1);
            if (s.slot >= 0 && static_cast<std::size_t>(s.slot) < workers.size()) {
                workers[static_cast<std::size_t>(s.slot)].generation =
                    std::max(workers[static_cast<std::size_t>(s.slot)].generation,
                             s.generation);
            }
        }
        for (const LedgerCrash& c : prior.crashes) {
            if (c.cell >= grid.size()) continue;
            (void)table.record_crash(c.cell, c.incarnation);
            crash_log[c.cell].push_back({c.slot, c.generation, c.pid, c.reason});
        }
        for (const std::size_t cell : prior.quarantines) {
            if (cell < grid.size() && !table.is_quarantined(cell)) {
                table.quarantine(cell);
            }
        }
        // Compacted ledger: fresh header + every prior event verbatim,
        // so a resume-of-a-resume still sees all journal directories.
        for (const std::string& raw : prior.raw_events) {
            ledger_prefix += raw;
            ledger_prefix += '\n';
        }
        if (options.log_progress) {
            std::printf("Fleet resume: %zu of %zu cells already journaled, "
                        "%zu quarantined\n",
                        table.done_count(), grid.size(), table.quarantined_count());
        }
    }

    CoordinatorLedger ledger;
    ledger.open(out_dir, ledger_prefix);

    if (options.log_progress) {
        std::printf("Fleet: %zu cells on %zu workers (%zu threads each), "
                    "cost-ordered leases\n",
                    grid.size(), n_workers, threads);
    }

    const auto start_time = Clock::now();
    for (std::size_t i = 0; i < n_workers; ++i) {
        workers[i].slot = static_cast<int>(i);
        // Spawn through the unified respawn path below, so even a
        // first-spawn failure (subprocess.spawn failpoint, EAGAIN) gets
        // the same backoff-and-retry treatment.
        workers[i].respawn_at = start_time;
    }

    std::size_t alive_count = 0;
    std::size_t since_merge = 0;

    const auto collect_results = [&] {
        std::vector<CellResult> collected;
        collected.reserve(table.done_count());
        for (const auto& r : results) {
            if (r) collected.push_back(*r);
        }
        return collected;
    };

    // Tails the worker's journal from the last consumed offset; every
    // complete new line is validated and folded into the result set.
    // Returns the number of records consumed. Throws loudly on digest
    // mismatches and on duplicates (LeaseTable::complete).
    const auto drain_journal = [&](WorkerState& w) -> std::size_t {
        const std::string path = journal_path(w.dir);
        std::ifstream file(path, std::ios::binary);
        if (!file) return 0;
        file.seekg(0, std::ios::end);
        const auto size = static_cast<std::size_t>(file.tellg());
        if (size <= w.journal_offset) return 0;
        file.seekg(static_cast<std::streamoff>(w.journal_offset));
        std::string chunk(size - w.journal_offset, '\0');
        file.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));

        std::size_t consumed = 0;
        std::size_t records = 0;
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = chunk.find('\n', start);
            if (nl == std::string::npos) break;  // torn tail: wait for more
            const std::string line = chunk.substr(start, nl - start);
            start = nl + 1;
            consumed = start;
            if (!w.header_seen) {
                (void)validate_journal_header(line, spec, grid.size(), path);
                w.header_seen = true;
                continue;
            }
            CellResult record = parse_cell_record(line, grid, path);
            const std::size_t index = record.cell.index;
            table.complete(index);  // throws if any worker already did this cell
            summary.busy_s += record.wall_seconds;
            if (options.log_progress) {
                // sdlbench-lint: allow(printf-float): stdout progress line, never serialized into an artifact
                std::printf("  [%zu/%zu] %s best=%.2f (w%d, %.1fs)\n",
                            table.done_count(), grid.size(),
                            record.cell.config.experiment_id.c_str(),
                            record.outcome.best_score, w.slot, record.wall_seconds);
            }
            results[index] = std::move(record);
            ++records;
            ++since_merge;
        }
        w.journal_offset += consumed;
        return records;
    };

    const auto grant_to = [&](WorkerState& w) {
        const std::size_t size = table.suggested_lease(alive_count, options.max_lease);
        if (size == 0) return;
        const std::vector<std::size_t> lease = table.grant(w.slot, size);
        if (lease.empty()) return;
        if (support::failpoint::armed() &&
            support::failpoint::evaluate("fleet.lease_send").action !=
                support::failpoint::Action::None) {
            // Injected dead pipe: the cells stay leased to this worker
            // until the main loop's deferred-death pass revokes them —
            // the same path a real EPIPE takes.
            w.send_failed = true;
            return;
        }
        if (!support::write_line_fd(w.proc.stdin_fd(), format_lease(lease))) {
            w.send_failed = true;  // death handled by the main loop
        }
    };

    const auto schedule_respawn = [&](WorkerState& w) {
        if (table.all_done()) return;
        if (w.respawns_used >= options.max_respawns) {
            if (!w.retired) {
                w.retired = true;
                std::fprintf(stderr,
                             "fleet: worker slot w%d retired after %zu respawns\n",
                             w.slot, w.respawns_used);
            }
            return;
        }
        ++w.respawns_used;
        const double factor =
            w.crash_streak > 0 ? std::ldexp(1.0, static_cast<int>(w.crash_streak) - 1)
                               : 1.0;
        const double backoff = std::min(options.respawn_backoff_cap_s,
                                        options.respawn_backoff_s * factor);
        w.respawn_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(backoff));
        // sdlbench-lint: allow(printf-float): stderr lifecycle line, never serialized into an artifact
        std::fprintf(stderr, "fleet: respawning worker w%d (generation %d) in %.2fs\n",
                     w.slot, w.generation + 1, backoff);
    };

    const auto spawn_slot = [&](WorkerState& w) {
        ++w.generation;
        w.incarnation = next_incarnation++;
        w.dir = out_dir + "/workers/w" + std::to_string(w.slot) +
                (w.generation > 0 ? "r" + std::to_string(w.generation) : "");
        std::filesystem::create_directories(w.dir);
        // A stale journal from a previous fleet run must not be tailed
        // before the fresh worker truncates it. (Respawns get fresh
        // per-generation dirs, so dead incarnations' journals survive
        // for salvage and inspection.)
        std::filesystem::remove(journal_path(w.dir));

        // Per-incarnation failpoint schedule: slot-numbered entries hit
        // generation 0 only (so respawns come up clean), '*' entries hit
        // every incarnation (crash loops). The variable is ALWAYS set,
        // so the coordinator's own environment never leaks failpoints
        // into workers.
        std::string fp;
        for (const FleetOptions::WorkerFailpoint& wf : worker_failpoints) {
            const bool applies =
                wf.slot < 0 || (wf.slot == w.slot && w.generation == 0);
            if (!applies) continue;
            if (!fp.empty()) fp += ',';
            fp += wf.spec;
        }

        std::vector<std::string> argv = {
            options.worker_exe, "--worker",
            "--campaign", spec_path,
            "--dir", w.dir,
            "--expect-digest", digest,
            "--heartbeat-interval", support::fmt_roundtrip(options.heartbeat_interval_s)};

        w.journal_offset = 0;
        w.header_seen = false;
        w.hello_seen = false;
        w.send_failed = false;
        w.lines = support::LineBuffer{};
        w.respawn_at.reset();
        try {
            w.proc = support::spawn_child(
                argv, {"SDLBENCH_WORKERS=" + std::to_string(threads),
                       "SDLBENCH_FAILPOINTS=" + fp});
        } catch (const support::Error& e) {
            // A spawn failure (fork/pipe exhaustion) is an instant crash
            // of the fresh incarnation: back off and retry on the same
            // budget instead of giving the slot up.
            std::fprintf(stderr, "fleet: spawning worker w%d failed: %s\n", w.slot,
                         e.what());
            ++summary.workers_lost;
            ++w.crash_streak;
            schedule_respawn(w);
            return;
        }
        w.alive = true;
        w.last_heard = Clock::now();
        ++alive_count;
        if (w.generation > 0) {
            ++summary.workers_respawned;
            std::fprintf(stderr, "fleet: worker w%d respawned (generation %d, pid %ld)\n",
                         w.slot, w.generation, w.proc.pid());
        }
        // Write-ahead: the ledger knows every journal directory before
        // any result can land in it.
        json::Value event = json::Value::object();
        event.set("event", "spawn");
        event.set("slot", w.slot);
        event.set("generation", w.generation);
        event.set("incarnation", static_cast<std::int64_t>(w.incarnation));
        event.set("pid", static_cast<std::int64_t>(w.proc.pid()));
        event.set("dir", w.dir);
        ledger.append(event);
    };

    const auto handle_death = [&](WorkerState& w, const char* why) {
        if (!w.alive) return;
        // Kill unconditionally: a merely-hung worker that woke up later
        // could journal a cell the table has meanwhile re-leased.
        support::kill_hard(w.proc);
        (void)support::wait_exit(w.proc);
        // The journal tail is the dead worker's last word: everything
        // durably appended (acked or not) is salvaged, never recomputed.
        const std::size_t salvaged = drain_journal(w);
        w.proc.close_pipes();
        w.alive = false;
        --alive_count;
        const std::vector<std::size_t> revoked = table.revoke(w.slot);
        ++summary.workers_lost;
        summary.cells_salvaged += salvaged;
        summary.cells_releases += revoked.size();
        std::fprintf(stderr,
                     "fleet: worker w%d lost (%s): salvaged %zu journaled cell(s), "
                     "re-leasing %zu\n",
                     w.slot, why, salvaged, revoked.size());

        // Crash blame: workers run their lease FIFO in grant order, and
        // revoke() returns incomplete cells in schedule (= grant) order,
        // so the first revoked cell is the one the worker was most
        // likely executing. A heuristic — which is why conviction takes
        // `quarantine_after` DISTINCT incarnations, not one.
        if (!revoked.empty()) {
            const std::size_t suspect = revoked.front();
            crash_log[suspect].push_back(
                {w.slot, w.generation, w.proc.pid(), std::string(why)});
            json::Value event = json::Value::object();
            event.set("event", "crash");
            event.set("cell", static_cast<std::int64_t>(suspect));
            event.set("slot", w.slot);
            event.set("generation", w.generation);
            event.set("incarnation", static_cast<std::int64_t>(w.incarnation));
            event.set("pid", static_cast<std::int64_t>(w.proc.pid()));
            event.set("reason", std::string(why));
            ledger.append(event);
            const std::size_t burned = table.record_crash(suspect, w.incarnation);
            if (burned >= options.quarantine_after && burned > 0) {
                table.quarantine(suspect);
                json::Value conviction = json::Value::object();
                conviction.set("event", "quarantine");
                conviction.set("cell", static_cast<std::int64_t>(suspect));
                ledger.append(conviction);
                std::fprintf(stderr,
                             "fleet: cell %zu quarantined after crashing %zu distinct "
                             "worker(s) — reporting it failed, not re-leasing\n",
                             suspect, burned);
            }
        }
        ++w.crash_streak;
        schedule_respawn(w);
    };

    while (!table.all_done()) {
        // Due respawns first: the pool heals before anything else is
        // decided this pass.
        const auto respawn_now = Clock::now();
        for (WorkerState& w : workers) {
            if (!w.alive && w.respawn_at && *w.respawn_at <= respawn_now) {
                spawn_slot(w);
            }
        }

        if (alive_count == 0) {
            bool respawn_pending = false;
            for (const WorkerState& w : workers) {
                if (w.respawn_at) respawn_pending = true;
            }
            if (!respawn_pending) {
                throw support::Error(
                    "fleet",
                    "all " + std::to_string(n_workers) +
                        " worker slots are dead with their respawn budgets "
                        "exhausted and " +
                        std::to_string(grid.size() - table.done_count() -
                                       table.quarantined_count()) +
                        " cell(s) incomplete — worker journals remain under '" +
                        out_dir + "/workers/' for inspection");
            }
        }

        // Poll until the next heartbeat or respawn deadline (bounded so
        // revocation and timeout checks stay responsive).
        std::vector<int> fds(workers.size(), -1);
        int timeout_ms = 500;
        const auto now = Clock::now();
        for (const WorkerState& w : workers) {
            if (w.alive) {
                fds[static_cast<std::size_t>(w.slot)] = w.proc.stdout_fd();
                const double remaining =
                    options.heartbeat_timeout_s -
                    std::chrono::duration<double>(now - w.last_heard).count();
                timeout_ms = std::min(timeout_ms, static_cast<int>(remaining * 1000.0));
            } else if (w.respawn_at) {
                const double remaining =
                    std::chrono::duration<double>(*w.respawn_at - now).count();
                timeout_ms = std::min(timeout_ms, static_cast<int>(remaining * 1000.0));
            }
        }
        timeout_ms = std::max(timeout_ms, 20);
        const std::vector<bool> readable = support::poll_readable(fds, timeout_ms);

        for (WorkerState& w : workers) {
            if (!w.alive || !readable[static_cast<std::size_t>(w.slot)]) continue;
            const long n = support::read_some(w.proc.stdout_fd(), w.lines);
            bool protocol_error = false;
            while (auto line = w.lines.next_line()) {
                const auto msg = parse_worker_line(*line);
                if (!msg) {
                    std::fprintf(stderr, "fleet: worker w%d sent garbage '%s'\n", w.slot,
                                 line->c_str());
                    protocol_error = true;
                    break;
                }
                w.last_heard = Clock::now();
                switch (msg->kind) {
                    case WorkerMsgKind::Hello:
                        if (!w.hello_seen) {
                            w.hello_seen = true;
                            grant_to(w);
                        }
                        break;
                    case WorkerMsgKind::Beat:
                        break;
                    case WorkerMsgKind::Ack:
                        if (support::failpoint::armed() &&
                            support::failpoint::evaluate("fleet.ack_recv").action !=
                                support::failpoint::Action::None) {
                            // Injected corrupt ack: same outcome as a
                            // garbage line — the worker is dropped and
                            // its journal is the source of truth.
                            std::fprintf(stderr,
                                         "fleet: injected ack_recv failure on w%d\n",
                                         w.slot);
                            protocol_error = true;
                            break;
                        }
                        // The payload travels through the journal, not
                        // the pipe; the ack is the read barrier.
                        (void)drain_journal(w);
                        w.crash_streak = 0;  // healthy progress: reset backoff
                        support::failpoint::maybe_fail("coordinator.post_ack_kill",
                                                       "fleet");
                        // Pipelined refill: keep one cell queued behind
                        // the one running, sized down as the queue
                        // drains (this is the work-stealing).
                        if (table.outstanding(w.slot) <= 1) grant_to(w);
                        break;
                }
                if (protocol_error) break;
            }
            if (protocol_error || n <= 0) {
                handle_death(w, protocol_error ? "protocol error" : "pipe closed");
            }
        }

        // Deferred deaths (lease writes that hit a closed pipe).
        for (WorkerState& w : workers) {
            if (w.alive && w.send_failed) handle_death(w, "lease write failed");
        }
        // Hung workers: no hello/beat/ack inside the timeout window.
        const auto after = Clock::now();
        for (WorkerState& w : workers) {
            if (w.alive &&
                std::chrono::duration<double>(after - w.last_heard).count() >
                    options.heartbeat_timeout_s) {
                handle_death(w, "heartbeat timeout");
            }
        }
        // Revocation or an earlier empty queue can leave live workers
        // idle while cells are pending — top them up.
        for (WorkerState& w : workers) {
            if (w.alive && w.hello_seen && !w.send_failed &&
                table.outstanding(w.slot) == 0) {
                grant_to(w);
            }
        }

        // Live merge: aggregates stay current while the fleet runs. A
        // failed live merge (disk hiccup, injected atomic_io fault) is
        // retried next pass — only the FINAL write below must succeed.
        if (since_merge >= options.merge_every && !table.all_done()) {
            try {
                write_campaign_outputs(out_dir, spec, collect_results());
                since_merge = 0;
            } catch (const support::Error& e) {
                std::fprintf(stderr, "fleet: live merge failed (%s); retrying\n",
                             e.what());
            }
        }
    }

    // Final merge from index-sorted results — the exact bytes of a
    // single-process uninterrupted run — plus the fused whole-grid
    // journal, so the fleet directory is resumable/mergeable like any
    // other campaign directory. Quarantined cells are reported, not
    // silently missing.
    std::vector<CellResult> final_results;
    final_results.reserve(grid.size());
    for (auto& r : results) {
        if (r) final_results.push_back(std::move(*r));
    }
    std::vector<QuarantinedCell> quarantined_cells;
    for (const std::size_t cell : table.quarantined()) {
        quarantined_cells.push_back(QuarantinedCell{grid[cell], crash_log[cell]});
    }
    summary.cells_quarantined = quarantined_cells.size();
    write_campaign_outputs(out_dir, spec, final_results, quarantined_cells);
    std::string journal_text = journal_header(spec, grid.size(), Shard{}).dump() + "\n";
    for (const CellResult& result : final_results) {
        journal_text += cell_record_to_json(result).dump();
        journal_text += '\n';
    }
    support::atomic_write(journal_path(out_dir), journal_text);

    for (WorkerState& w : workers) {
        if (!w.alive) continue;
        (void)support::write_line_fd(w.proc.stdin_fd(), format_stop());
        w.proc.close_stdin();  // reader thread EOF: the worker exits cleanly
    }
    for (WorkerState& w : workers) {
        if (!w.alive) continue;
        (void)support::wait_exit(w.proc);
        w.proc.close_pipes();
        w.alive = false;
    }
    // Everything durable is written; the ledger's job is done. Its
    // absence is what marks this directory as cleanly completed.
    ledger.remove();

    summary.makespan_s = seconds_since(start_time);
    if (summary.makespan_s > 0.0 && summary.workers_started > 0) {
        summary.efficiency =
            summary.busy_s /
            (summary.makespan_s * static_cast<double>(summary.workers_started));
    }
    return FleetResult{summary, std::move(final_results), std::move(quarantined_cells)};
}

// ----------------------------------------------------------------- worker

int run_fleet_worker(const FleetWorkerOptions& options) {
    support::ignore_sigpipe();

    const CampaignSpec spec = campaign_from_file(options.campaign_path);
    const std::string digest = spec_digest(spec);
    if (!options.expect_digest.empty() && digest != options.expect_digest) {
        std::fprintf(stderr,
                     "fleet worker: spec digest mismatch (coordinator %s, local %s) — "
                     "coordinator and worker must see the same campaign file\n",
                     options.expect_digest.c_str(), digest.c_str());
        return 3;
    }
    const std::vector<CampaignCell> grid = expand_grid(spec);
    std::filesystem::create_directories(options.dir);
    // Whole-grid header: a worker may journal any subset of the grid, so
    // its journal is not a round-robin shard — Shard{} (1/1) makes every
    // cell index a member and load_journal/merge_journals validate it
    // like any other journal.
    CheckpointJournal journal(options.dir, spec, grid.size(), Shard{});

    // stdout carries the protocol; acks (main thread) and beats
    // (heartbeat thread) must not interleave mid-line.
    support::Mutex out_mutex;
    const auto send = [&out_mutex](const std::string& line) {
        support::MutexLock lock(out_mutex);
        return support::write_line_fd(1, line);
    };

    // The reader thread owns stdin; the channel hands lines to the main
    // loop. Shared ownership lets the thread be detached safely on the
    // rare early-exit paths where stdin never reaches EOF.
    auto inbox = std::make_shared<support::Channel<std::string>>();
    std::thread reader([inbox] {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!inbox->send(line)) return;
        }
        inbox->close();  // coordinator closed our stdin (stop or death)
    });
    reader.detach();

    // The stop flag is written under hb_mutex and the notify happens
    // after the locked store — storing it unlocked (the old atomic
    // version) left a lost-wake-up window between the heartbeat
    // thread's predicate check and its block, costing one extra
    // interval of shutdown latency.
    support::Mutex hb_mutex;
    support::CondVar hb_cv;
    bool hb_stop = false;  // guarded by hb_mutex
    std::thread heartbeat([&] {
        const auto interval = std::chrono::duration<double>(
            std::max(0.05, options.heartbeat_interval_s));
        support::MutexLock lock(hb_mutex);
        while (!hb_stop) {
            if (hb_cv.wait_for(hb_mutex, interval) == std::cv_status::timeout) {
                if (!send(format_beat())) return;  // coordinator gone
            }
        }
    });

    int exit_code = 0;
    std::deque<std::size_t> queue;
    bool stop = false;

#if !defined(_WIN32)
    (void)send(format_hello(static_cast<long>(::getpid())));
#else
    (void)send(format_hello(0));
#endif

    const auto handle = [&](const std::string& line) {
        const auto msg = parse_coordinator_line(line);
        if (!msg) {
            std::fprintf(stderr, "fleet worker: bad coordinator line '%s'\n",
                         line.c_str());
            stop = true;
            exit_code = 4;
            return;
        }
        if (msg->kind == CoordMsgKind::Stop) {
            stop = true;
            return;
        }
        for (const std::size_t cell : msg->cells) {
            if (cell >= grid.size()) {
                std::fprintf(stderr, "fleet worker: leased cell %zu out of range\n",
                             cell);
                stop = true;
                exit_code = 4;
                return;
            }
            queue.push_back(cell);
        }
    };

    while (!stop) {
        if (queue.empty()) {
            // Idle: block for the next lease (heartbeats keep flowing
            // from the side thread).
            const auto line = inbox->receive();
            if (!line) break;  // EOF: coordinator is gone
            handle(*line);
        }
        while (!stop) {
            const auto line = inbox->try_receive();
            if (!line) break;
            handle(*line);
        }
        if (stop || queue.empty()) continue;

        const std::size_t cell = queue.front();
        queue.pop_front();
        // Crash drills: `worker.cell_start=kill` dies before any work
        // (re-lease path), `worker.pre_ack_kill=kill` dies after the
        // durable append but before the ack (salvage path). SIGKILL is
        // uncatchable, so no destructor or flush can soften the crash.
        support::failpoint::maybe_fail("worker.cell_start", "fleet",
                                       static_cast<long>(cell));
        const auto started = Clock::now();
        CellResult result;
        result.cell = grid[cell];
        result.outcome = core::ColorPickerApp(result.cell.config).run();
        result.wall_seconds = seconds_since(started);
        journal.append(result);  // durable (fdatasync) before the ack
        support::failpoint::maybe_fail("worker.pre_ack_kill", "fleet");
        if (!send(format_ack(cell))) break;  // coordinator is gone
    }

    {
        support::MutexLock lock(hb_mutex);
        hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
    return exit_code;
}

}  // namespace sdl::campaign
