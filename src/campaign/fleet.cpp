#include "campaign/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <thread>
#include <utility>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/report.hpp"
#include "core/colorpicker.hpp"
#include "core/scenario_gen.hpp"
#include "support/atomic_io.hpp"
#include "support/common.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/subprocess.hpp"

#include <signal.h>  // kill(2)

namespace sdl::campaign {

namespace {

// sdlbench-lint: allow(steady-clock): heartbeat deadlines and makespan are operational wall time, never report bytes
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worker-side beat period; the Coordinator's heartbeat timeout
/// (coordinator.cpp) is many beats long.
constexpr double kHeartbeatIntervalS = 0.25;

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
    if (tokens[0] == "hello" && tokens.size() == 1) {
        msg.kind = WorkerMsgKind::Hello;
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

std::string format_hello() { return "hello"; }
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

/// One worker slot's process: the slot outlives process deaths, and each
/// spawn gets a fresh process and journal directory. Every decision
/// about the slot lives in the Coordinator.
struct WorkerState {
    std::string dir;
    support::ChildProcess proc;  ///< valid() while the process runs
    support::LineBuffer lines;
    std::optional<LogReader> journal;  ///< tails <dir>/cells.jsonl
    bool send_failed = false;
};

/// The grid's difficulty probes (core::generated_difficulty, memoized),
/// run on one side thread so that the coordinator's poll loop keeps
/// answering its workers: the coordinator's core is otherwise idle while
/// the workers run cells. The destructor stops the thread between seeds
/// and joins it, so no exit path — an early throw included — leaves it
/// running; an exception from a probe surfaces through finished() or
/// join().
class DifficultyProbes {
public:
    explicit DifficultyProbes(std::vector<std::uint64_t> seeds)
        : done_(std::async(std::launch::async, [this, seeds = std::move(seeds)] {
              for (const std::uint64_t seed : seeds) {
                  if (stop_) return;
                  (void)core::generated_difficulty(seed);
              }
          })) {}
    DifficultyProbes(const DifficultyProbes&) = delete;
    DifficultyProbes& operator=(const DifficultyProbes&) = delete;
    /// The std::async future's destructor joins the thread.
    ~DifficultyProbes() { stop_ = true; }

    /// True once every seed is probed (their scores are in the memo).
    /// Rethrows the probe thread's exception.
    [[nodiscard]] bool finished() {
        if (!done_.valid()) return true;
        if (done_.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            return false;
        }
        done_.get();
        return true;
    }

    /// Blocks until every seed is probed; rethrows the thread's exception.
    void join() {
        if (done_.valid()) done_.get();
    }

private:
    std::atomic<bool> stop_{false};
    std::future<void> done_;
};

/// Kills and reaps every still-running child no matter how run_fleet
/// exits — early throws (spec errors, duplicate cells, all workers
/// lost) included — so no zombie outlives the coordinator.
struct ReapGuard {
    std::vector<WorkerState>& workers;
    ~ReapGuard() {
        for (WorkerState& w : workers) {
            if (!w.proc.valid()) continue;
            support::kill_hard(w.proc);
            (void)support::wait_exit(w.proc);
            w.proc = {};
        }
    }
};

// ------------------------------------------------- coordinator ledger

/// Write-ahead ledger of coordinator decisions (spawns, crash blames,
/// quarantines), one fsync'd record each in a log (checkpoint.hpp) — the
/// durable state a killed coordinator is resumed from (worker journals
/// carry the results; the ledger says where they live and what was
/// convicted). Removed on successful completion; its presence marks a
/// crashed run.
constexpr std::string_view kLedgerSchema = "sdlbench.coordinator_journal.v1";

std::string ledger_path(const std::string& out_dir) {
    return out_dir + "/coordinator.jsonl";
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
    const std::size_t progress = journal_progress(journal_path(out_dir), spec, grid.size());
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

    const std::size_t n_workers =
        std::min(std::max<std::size_t>(1, options.workers), grid.size());

    // Every worker schedule is parsed up front so a typo — in the spec
    // or in the slot — aborts before any spawn.
    for (const FleetOptions::WorkerFailpoint& wf : options.worker_failpoints) {
        if (wf.slot >= 0 && static_cast<std::size_t>(wf.slot) >= n_workers) {
            throw support::ConfigError(
                "--worker-failpoints: slot " + std::to_string(wf.slot) +
                " is not a worker of this fleet (" + std::to_string(n_workers) +
                " worker(s), slots 0.." + std::to_string(n_workers - 1) + ")");
        }
        (void)support::failpoint::parse(wf.spec);
    }
    std::filesystem::create_directories(out_dir);

    std::vector<double> costs = cell_costs(grid);
    std::vector<std::size_t> order = longest_first(costs);  // before costs moves
    Coordinator coord(n_workers, std::move(order), std::move(costs));
    std::vector<std::optional<CellResult>> results(grid.size());
    std::vector<std::vector<CellCrash>> crash_log(grid.size());
    FleetSummary summary;
    summary.cells = grid.size();

    std::vector<WorkerState> workers(n_workers);
    ReapGuard reaper{workers};
    // Spawns per slot in this run: a resume's first spawns carry the
    // ledger's next generation, yet they are not respawns.
    std::vector<int> spawns(n_workers, 0);

    // Resume: replay the ledger's events through the Coordinator, taking
    // each spawned worker's journal records — the journals are the source
    // of truth for results; the ledger contributes locations, crash
    // history, and quarantine convictions.
    std::optional<support::AppendWriter> ledger;
    if (options.resume) {
        const std::string ledger_file = ledger_path(out_dir);
        ResumedLog prior = resume_log(ledger_file, kLedgerSchema, digest, grid.size());
        // A failing event names its ledger line (line 1 is the header):
        // a field missing or of the wrong type, or a journal it points to.
        std::size_t line = 1;
        try {
            // Orphans of the dead coordinator: best-effort SIGKILL by
            // recorded pid before reading their journals, so none can
            // append a record after we've drained it. A reused pid is
            // possible but the window is narrow (docs/ROBUSTNESS.md §
            // Resume caveats).
            for (const json::Value& event : prior.records) {
                ++line;
                const std::int64_t pid = event.get_or("pid", std::int64_t{0});
                if (event.get_or("event", std::string()) == "spawn" && pid > 0) {
                    (void)::kill(static_cast<pid_t>(pid), SIGKILL);
                }
            }
            line = 1;
            for (const json::Value& event : prior.records) {
                ++line;
                const auto integer = [&event](const char* key) {
                    return event.at(key).as_int(key);
                };
                const std::string kind = event.get_or("event", std::string());
                if (kind == "spawn") {
                    // A worker that died before creating its journal left none.
                    const std::string path = journal_path(event.at("dir").as_string("dir"));
                    if (std::filesystem::exists(path)) {
                        for (CellResult& record : load_journal(path, spec, grid).cells) {
                            const std::size_t index = record.cell.index;
                            // Another run's work: it stays out of this run's
                            // busy time. Cross-journal duplicates stay loud.
                            coord.complete(index);
                            results[index] = std::move(record);
                        }
                    }
                    coord.replay_spawn(static_cast<std::size_t>(integer("slot")),
                                       static_cast<int>(integer("generation")));
                } else if (kind == "crash") {
                    const auto cell = static_cast<std::size_t>(integer("cell"));
                    const CellCrash crash{static_cast<int>(integer("slot")),
                                          static_cast<int>(integer("generation")),
                                          static_cast<long>(integer("pid")),
                                          event.at("reason").as_string("reason")};
                    coord.replay_crash(cell, static_cast<std::size_t>(crash.slot),
                                       crash.generation);
                    if (cell < grid.size()) crash_log[cell].push_back(crash);
                } else if (kind == "quarantine") {
                    coord.replay_quarantine(static_cast<std::size_t>(integer("cell")));
                }  // unknown events: kept in the ledger (forward compatibility)
            }
        } catch (const support::Error& e) {
            throw support::ConfigError("journal '" + ledger_file + "': line " +
                                       std::to_string(line) + ": " + e.what());
        }
        std::printf("Fleet resume: %zu of %zu cells already journaled, "
                    "%zu quarantined\n",
                    coord.done_count(), grid.size(), coord.quarantined_count());
        ledger.emplace(std::move(prior.writer));
    } else {
        json::Value header = json::Value::object();
        header.set("schema", std::string(kLedgerSchema));
        header.set("spec_digest", digest);
        header.set("cells_total", static_cast<std::int64_t>(grid.size()));
        header.set("campaign_path", spec_path);
        ledger.emplace(start_log(ledger_path(out_dir), header));
    }
    // Appends one ledger event: its fields, in order.
    const auto log_event =
        [&ledger](std::initializer_list<std::pair<const char*, json::Value>> fields) {
            json::Value event = json::Value::object();
            for (const auto& [key, value] : fields) event.set(key, value);
            ledger->append_line(event.dump());
        };

    // Disjoint core budgets for the workers this run starts — no more
    // than its open cells, which on a resume may be few: divide the host
    // instead of letting every worker's in-process pool claim all of it.
    const std::size_t starting = std::min(n_workers, coord.open_count());
    std::size_t threads = options.worker_threads;
    if (threads == 0) {
        const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
        threads = std::max<std::size_t>(1, hw / std::max<std::size_t>(1, starting));
    }
    std::printf("Fleet: %zu cells on %zu workers (%zu threads each), "
                "cost-sized leases\n",
                grid.size(), starting, threads);

    // The report's difficulty probes run beside the workers from here on;
    // live merges wait for them, the final merge joins them.
    DifficultyProbes probes(generated_seeds(grid));

    // The Coordinator's clock: seconds since the fleet started.
    const auto start_time = Clock::now();
    const auto now = [start_time] { return seconds_since(start_time); };
    bool merge_due = false;  // records drained since the last live merge

    const auto collect_results = [&] {
        std::vector<CellResult> collected;
        collected.reserve(coord.done_count());
        for (const auto& r : results) {
            if (r) collected.push_back(*r);
        }
        return collected;
    };

    // Tails the worker's journal from the last consumed offset; every
    // complete new line is validated and folded into the result set.
    // Returns the number of records consumed. Throws loudly on digest
    // mismatches and on duplicates (Coordinator::complete).
    const auto drain_journal = [&](WorkerState& w, std::size_t slot) -> std::size_t {
        std::size_t records = 0;
        // An append still in flight (or a dead worker's torn tail) waits
        // for the next poll.
        for (const json::Value& parsed : w.journal->read()) {
            CellResult record = parse_cell_record(parsed, grid, w.journal->path());
            const std::size_t index = record.cell.index;
            coord.complete(index);  // throws if any worker already did this cell
            summary.busy_s += record.wall_seconds;
            // sdlbench-lint: allow(printf-float): stdout progress line, never serialized into an artifact
            std::printf("  [%zu/%zu] %s best=%.2f (w%zu, %.1fs)\n", coord.done_count(),
                        grid.size(), record.cell.config.experiment_id.c_str(),
                        record.outcome.best_score, slot, record.wall_seconds);
            results[index] = std::move(record);
            ++records;
            merge_due = true;
        }
        return records;
    };

    const auto send_lease = [](WorkerState& w, const std::vector<std::size_t>& lease) {
        if (lease.empty()) return;
        if (!support::write_line_fd(w.proc.stdin_fd(), format_lease(lease))) {
            w.send_failed = true;  // death handled by the main loop
        }
    };

    // A worker is gone — its pipe closed, it went silent, a lease write
    // failed, or it never started — and the Coordinator decides what
    // follows; the crash and any conviction go to the ledger ahead of the
    // respawn.
    const auto handle_death = [&](std::size_t slot, const char* why) {
        WorkerState& w = workers[slot];
        // Kill unconditionally: a merely-hung worker that woke up later
        // could journal a cell the Coordinator has meanwhile re-leased.
        support::kill_hard(w.proc);
        (void)support::wait_exit(w.proc);
        // The journal tail is the dead worker's last word: everything
        // durably appended (acked or not) is salvaged, never recomputed.
        const std::size_t salvaged = drain_journal(w, slot);
        const long pid = w.proc.pid();
        w.proc = {};
        const Coordinator::Death death = coord.died(slot, now());
        ++summary.workers_lost;
        summary.cells_salvaged += salvaged;
        summary.cells_releases += death.revoked.size();
        std::fprintf(stderr,
                     "fleet: worker w%zu lost (%s): salvaged %zu journaled cell(s), "
                     "re-leasing %zu\n",
                     slot, why, salvaged, death.revoked.size());
        const int generation = coord.generation(slot);
        if (death.suspect) {
            const std::size_t suspect = *death.suspect;
            crash_log[suspect].push_back({static_cast<int>(slot), generation, pid, why});
            log_event({{"event", "crash"}, {"cell", suspect}, {"slot", slot},
                       {"generation", generation}, {"pid", pid}, {"reason", why}});
        }
        if (death.quarantined) {
            log_event({{"event", "quarantine"}, {"cell", *death.suspect}});
            std::fprintf(stderr,
                         "fleet: cell %zu quarantined after crashing %zu distinct "
                         "worker(s) — reporting it failed, not re-leasing\n",
                         *death.suspect, coord.crash_count(*death.suspect));
        }
        if (death.retired) {
            std::fprintf(stderr,
                         "fleet: worker slot w%zu retired: respawn budget spent\n", slot);
        } else if (death.respawn_in) {
            // sdlbench-lint: allow(printf-float): stderr lifecycle line, never serialized into an artifact
            std::fprintf(stderr, "fleet: respawning worker w%zu (generation %d) in %.2fs\n",
                         slot, generation + 1, *death.respawn_in);
        }
    };

    const auto spawn_slot = [&](std::size_t slot) {
        WorkerState& w = workers[slot];
        const int generation = coord.spawn(slot, now());
        const bool respawn = spawns[slot]++ > 0;
        w = WorkerState{};
        w.dir = out_dir + "/workers/w" + std::to_string(slot) +
                (generation > 0 ? "r" + std::to_string(generation) : "");
        std::filesystem::create_directories(w.dir);
        // A stale journal from a previous fleet run must not be tailed
        // before the fresh worker truncates it. (Respawns get fresh
        // per-generation dirs, so dead incarnations' journals survive
        // for salvage and inspection.)
        std::filesystem::remove(journal_path(w.dir));
        w.journal.emplace(journal_path(w.dir), kJournalSchema, digest, grid.size());

        // Per-incarnation failpoint schedule: slot-numbered entries hit
        // generation 0 only (so respawns come up clean), '*' entries hit
        // every incarnation (crash loops). The variable is ALWAYS set,
        // so the coordinator's own environment never leaks failpoints
        // into workers.
        std::string fp;
        for (const FleetOptions::WorkerFailpoint& wf : options.worker_failpoints) {
            const bool applies =
                wf.slot < 0 ||
                (static_cast<std::size_t>(wf.slot) == slot && generation == 0);
            if (!applies) continue;
            if (!fp.empty()) fp += ',';
            fp += wf.spec;
        }

        std::vector<std::string> argv = {
            options.worker_exe, "--worker",
            "--campaign", spec_path,
            "--dir", w.dir,
            "--expect-digest", digest};
        try {
            w.proc = support::spawn_child(
                argv, {"SDLBENCH_WORKERS=" + std::to_string(threads),
                       "SDLBENCH_FAILPOINTS=" + fp});
        } catch (const support::Error& e) {
            // A spawn failure (fork/pipe exhaustion) is an instant death
            // of the fresh incarnation: same backoff, same budget.
            handle_death(slot, e.what());
            return;
        }
        if (respawn) {
            ++summary.workers_respawned;
            std::fprintf(stderr,
                         "fleet: worker w%zu respawned (generation %d, pid %ld)\n", slot,
                         generation, w.proc.pid());
        }
        // Write-ahead: the ledger knows every journal directory before
        // any result can land in it.
        log_event({{"event", "spawn"}, {"slot", slot}, {"generation", generation},
                   {"pid", w.proc.pid()}, {"dir", w.dir}});
    };

    while (!coord.all_done()) {
        // Due respawns first: the pool heals before anything else is
        // decided this pass.
        for (const std::size_t slot : coord.due(now())) spawn_slot(slot);
        if (coord.exhausted()) {
            throw support::Error(
                "fleet",
                "all " + std::to_string(n_workers) +
                    " worker slots are dead with their respawn budgets "
                    "exhausted and " +
                    std::to_string(coord.open_count()) +
                    " cell(s) incomplete — worker journals remain under '" +
                    out_dir + "/workers/' for inspection");
        }

        // Poll until the next heartbeat or respawn deadline (bounded so
        // revocation and timeout checks stay responsive).
        std::vector<int> fds(workers.size(), -1);
        for (std::size_t slot = 0; slot < workers.size(); ++slot) {
            if (workers[slot].proc.valid()) fds[slot] = workers[slot].proc.stdout_fd();
        }
        const int timeout_ms =
            std::max(20, static_cast<int>(coord.next_deadline(now(), 0.5) * 1000.0));
        const std::vector<bool> readable = support::poll_readable(fds, timeout_ms);

        for (std::size_t slot = 0; slot < workers.size(); ++slot) {
            WorkerState& w = workers[slot];
            if (!w.proc.valid() || !readable[slot]) continue;
            const long n = support::read_some(w.proc.stdout_fd(), w.lines);
            bool protocol_error = false;
            while (auto line = w.lines.next_line()) {
                const auto msg = parse_worker_line(*line);
                if (!msg) {
                    std::fprintf(stderr, "fleet: worker w%zu sent garbage '%s'\n", slot,
                                 line->c_str());
                    protocol_error = true;
                    break;
                }
                switch (msg->kind) {
                    case WorkerMsgKind::Hello:
                        send_lease(w, coord.hello(slot, now()));
                        break;
                    case WorkerMsgKind::Beat:
                        coord.heard(slot, now());
                        break;
                    case WorkerMsgKind::Ack:
                        // The payload travels through the journal, not
                        // the pipe; the ack is the read barrier.
                        (void)drain_journal(w, slot);
                        support::failpoint::maybe_fail("coordinator.post_ack_kill",
                                                       "fleet");
                        send_lease(w, coord.acked(slot, now()));
                        break;
                }
            }
            if (protocol_error || n <= 0) {
                handle_death(slot, protocol_error ? "protocol error" : "pipe closed");
            }
        }

        // Deferred deaths (lease writes that hit a closed pipe).
        for (std::size_t slot = 0; slot < workers.size(); ++slot) {
            if (workers[slot].proc.valid() && workers[slot].send_failed) {
                handle_death(slot, "lease write failed");
            }
        }
        for (const std::size_t slot : coord.hung(now())) {
            handle_death(slot, "heartbeat timeout");
        }
        // Revocation or an earlier empty queue can leave live workers
        // idle while cells are pending.
        for (const auto& [slot, lease] : coord.top_up()) send_lease(workers[slot], lease);

        // Live merge: aggregates stay current while the fleet runs. A
        // failed live merge (disk hiccup, injected atomic_io fault) is
        // retried next pass — only the FINAL write below must succeed.
        // Until the probe thread is done, merge_due stays set: a merge
        // now would run the missing probes inline, stalling this loop.
        if (merge_due && !coord.all_done() && probes.finished()) {
            try {
                write_campaign_outputs(out_dir, spec, collect_results());
                merge_due = false;
            } catch (const support::Error& e) {
                std::fprintf(stderr, "fleet: live merge failed (%s); retrying\n",
                             e.what());
            }
        }
    }

    // Final merge from index-sorted results — the exact bytes of a
    // single-process uninterrupted run — plus the fused whole-grid
    // journal, so `sdlbench_run --resume` accepts the fleet directory like
    // any other campaign directory. Quarantined cells are reported, not
    // silently missing.
    std::vector<CellResult> final_results;
    final_results.reserve(grid.size());
    for (auto& r : results) {
        if (r) final_results.push_back(std::move(*r));
    }
    std::vector<QuarantinedCell> quarantined_cells;
    for (const std::size_t cell : coord.quarantined()) {
        quarantined_cells.push_back(QuarantinedCell{grid[cell], crash_log[cell]});
    }
    summary.cells_quarantined = quarantined_cells.size();
    probes.join();
    write_campaign_outputs(out_dir, spec, final_results, quarantined_cells);
    write_journal(out_dir, spec, grid.size(), final_results);

    for (WorkerState& w : workers) {
        if (!w.proc.valid()) continue;
        (void)support::write_line_fd(w.proc.stdin_fd(), format_stop());
        w.proc.close_stdin();  // EOF: the worker exits cleanly
    }
    for (WorkerState& w : workers) {
        if (!w.proc.valid()) continue;
        (void)support::wait_exit(w.proc);
        w.proc = {};
    }
    // Everything durable is written; the ledger's job is done. Its
    // absence is what marks this directory as cleanly completed.
    ledger.reset();
    std::error_code ignored;
    std::filesystem::remove(ledger_path(out_dir), ignored);

    summary.makespan_s = now();
    summary.workers_started = static_cast<std::size_t>(
        std::count_if(spawns.begin(), spawns.end(), [](int n) { return n > 0; }));
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
    // Whole-grid header: a worker journals whichever cells it is leased,
    // and load_journal validates its journal like any other.
    CheckpointJournal journal(options.dir, spec, grid.size());

    // stdout carries the protocol; acks (main thread) and beats
    // (heartbeat thread) must not interleave mid-line.
    support::Mutex out_mutex;
    const auto send = [&out_mutex](const std::string& line) {
        support::MutexLock lock(out_mutex);
        return support::write_line_fd(1, line);
    };

    // The stop flag is written under hb_mutex and the notify happens
    // after the locked store — storing it unlocked (the old atomic
    // version) left a lost-wake-up window between the heartbeat
    // thread's predicate check and its block, costing one extra
    // interval of shutdown latency.
    support::Mutex hb_mutex;
    support::CondVar hb_cv;
    bool hb_stop = false;  // guarded by hb_mutex
    std::thread heartbeat([&] {
        const auto interval = std::chrono::duration<double>(kHeartbeatIntervalS);
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

    (void)send(format_hello());

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

    // Between cells, take whatever the coordinator has sent on stdin;
    // block only while no leased cell is waiting (heartbeats keep flowing
    // from the side thread). After EOF the queued cells still run.
    support::LineBuffer inbox;
    bool eof = false;
    for (;;) {
        if (!eof) {
            const bool idle = queue.empty();
            const bool ready = support::poll_readable({0}, idle ? -1 : 0)[0];
            if (ready && support::read_some(0, inbox) > 0) {
                while (auto line = inbox.next_line()) {
                    handle(*line);
                    if (stop) break;
                }
            } else if (ready || idle) {
                // EOF or a read error (an endless poll only returns
                // empty-handed on error): the coordinator closed our
                // stdin or is gone. An unterminated tail is dropped.
                eof = true;
            }
        }
        if (stop || (eof && queue.empty())) break;
        if (queue.empty()) continue;

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
