// Tests for the fleet building blocks: the line protocol, the
// lease-table scheduler (grant/complete/revoke/cost-sized leases and the
// loud duplicate guard), the cost model and its cell ordering, a replay
// of recorded cell walls through the lease policy, the SDLBENCH_WORKERS
// parser, and the subprocess/pipe helpers (POSIX only).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>

#include <csignal>
#endif

#include "campaign/campaign_io.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/fleet.hpp"
#include "campaign/lease.hpp"
#include "core/scenario_gen.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"
#include "support/subprocess.hpp"
#include "support/thread_pool.hpp"

using namespace sdl;
using namespace sdl::campaign;

// ---------------------------------------------------------------- protocol

TEST(FleetProtocol, WorkerLinesRoundTrip) {
    const auto hello = parse_worker_line(format_hello(4321));
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->kind, WorkerMsgKind::Hello);
    EXPECT_EQ(hello->pid, 4321);

    const auto beat = parse_worker_line(format_beat());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, WorkerMsgKind::Beat);

    const auto ack = parse_worker_line(format_ack(17));
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->kind, WorkerMsgKind::Ack);
    EXPECT_EQ(ack->cell, 17u);
}

TEST(FleetProtocol, CoordinatorLinesRoundTrip) {
    const auto lease = parse_coordinator_line(format_lease({3, 0, 12}));
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->kind, CoordMsgKind::Lease);
    EXPECT_EQ(lease->cells, (std::vector<std::size_t>{3, 0, 12}));

    const auto stop = parse_coordinator_line(format_stop());
    ASSERT_TRUE(stop.has_value());
    EXPECT_EQ(stop->kind, CoordMsgKind::Stop);
}

TEST(FleetProtocol, MalformedLinesRejected) {
    // Garbage never half-parses: every frame is all-or-nothing.
    EXPECT_FALSE(parse_worker_line("").has_value());
    EXPECT_FALSE(parse_worker_line("ack").has_value());
    EXPECT_FALSE(parse_worker_line("ack x").has_value());
    EXPECT_FALSE(parse_worker_line("ack 1 2").has_value());
    EXPECT_FALSE(parse_worker_line("ack  1").has_value());  // double space
    EXPECT_FALSE(parse_worker_line("hello").has_value());
    EXPECT_FALSE(parse_worker_line("beat now").has_value());
    EXPECT_FALSE(parse_worker_line("lease 1").has_value());  // wrong direction
    EXPECT_FALSE(parse_coordinator_line("lease").has_value());
    EXPECT_FALSE(parse_coordinator_line("lease 1 x").has_value());
    EXPECT_FALSE(parse_coordinator_line("stop now").has_value());
    EXPECT_FALSE(parse_coordinator_line("ack 1").has_value());
}

TEST(FleetProtocol, EmptyLeaseThrows) {
    EXPECT_THROW((void)format_lease({}), support::LogicError);
}

// -------------------------------------------------------------- lease table

TEST(LeaseTableTest, GrantsFollowScheduleOrder) {
    LeaseTable table(4, {2, 0, 3, 1});
    EXPECT_EQ(table.grant(0, 2), (std::vector<std::size_t>{2, 0}));
    EXPECT_EQ(table.grant(1, 10), (std::vector<std::size_t>{3, 1}));
    EXPECT_TRUE(table.grant(2, 1).empty());  // everything leased
    EXPECT_EQ(table.outstanding(0), 2u);
    EXPECT_EQ(table.outstanding(1), 2u);
}

TEST(LeaseTableTest, CompleteTwiceThrows) {
    LeaseTable table(2, {0, 1});
    (void)table.grant(0, 2);
    table.complete(1);
    EXPECT_THROW(table.complete(1), support::LogicError);
    EXPECT_THROW(table.complete(99), support::LogicError);  // out of range
    table.complete(0);
    EXPECT_TRUE(table.all_done());
}

TEST(LeaseTableTest, RevokeReturnsIncompleteCellsToFront) {
    LeaseTable table(5, {4, 3, 2, 1, 0});
    (void)table.grant(7, 3);  // cells 4, 3, 2
    table.complete(3);        // journaled before death
    const std::vector<std::size_t> revoked = table.revoke(7);
    EXPECT_EQ(revoked, (std::vector<std::size_t>{4, 2}));  // schedule order
    EXPECT_EQ(table.outstanding(7), 0u);
    // Revoked cells are re-leased before the untouched tail (1, 0), in
    // their original schedule order (4 before 2).
    EXPECT_EQ(table.grant(8, 5), (std::vector<std::size_t>{4, 2, 1, 0}));
}

TEST(LeaseTableTest, CompletedPendingCellIsNeverReleased) {
    // A revoked cell's journal record can surface after the revoke; once
    // completed, grant() must skip its stale queue entry.
    LeaseTable table(2, {0, 1});
    (void)table.grant(0, 2);
    (void)table.revoke(0);
    table.complete(0);  // salvage drain after the revoke
    EXPECT_EQ(table.grant(1, 5), (std::vector<std::size_t>{1}));
    table.complete(1);
    EXPECT_TRUE(table.all_done());
}

TEST(LeaseTableTest, CrashCountsAreDedupedByIncarnation) {
    LeaseTable table(3, {0, 1, 2});
    (void)table.grant(0, 1);
    // The same incarnation crashing on a cell twice (kill, salvage,
    // re-lease, kill again before the respawn lands) is one conviction
    // vote, not two.
    EXPECT_EQ(table.record_crash(0, 7), 1u);
    EXPECT_EQ(table.record_crash(0, 7), 1u);
    EXPECT_EQ(table.record_crash(0, 8), 2u);
    EXPECT_EQ(table.crash_count(0), 2u);
    EXPECT_EQ(table.crash_count(1), 0u);
    // A crash attributed to an already-finished cell is ignored (the
    // blame heuristic guessed wrong; the result stands).
    table.complete(0);
    EXPECT_EQ(table.record_crash(0, 9), 0u);
    EXPECT_EQ(table.crash_count(0), 2u);
}

TEST(LeaseTableTest, QuarantineRemovesTheCellFromTheSchedule) {
    LeaseTable table(3, {2, 1, 0});
    (void)table.grant(0, 1);  // cell 2
    (void)table.revoke(0);
    EXPECT_EQ(table.record_crash(2, 0), 1u);
    table.quarantine(2);
    EXPECT_TRUE(table.is_quarantined(2));
    EXPECT_EQ(table.quarantined_count(), 1u);
    EXPECT_EQ(table.quarantined(), (std::vector<std::size_t>{2}));
    // The poisoned cell is never granted again.
    EXPECT_EQ(table.grant(1, 5), (std::vector<std::size_t>{1, 0}));
    // Crash votes against a quarantined cell no longer accumulate.
    EXPECT_EQ(table.record_crash(2, 1), 0u);
    // A quarantined cell still counts toward termination.
    table.complete(1);
    table.complete(0);
    EXPECT_TRUE(table.all_done());
    EXPECT_EQ(table.done_count(), 2u);
}

TEST(LeaseTableTest, QuarantineGuardsAgainstBookkeepingBugs) {
    LeaseTable table(2, {0, 1});
    (void)table.grant(0, 2);
    table.complete(0);
    // Quarantining a finished cell would discard a good result.
    EXPECT_THROW(table.quarantine(0), support::LogicError);
    table.quarantine(1);
    // Double conviction and completion-after-quarantine are coordinator
    // logic errors, not recoverable states.
    EXPECT_THROW(table.quarantine(1), support::LogicError);
    EXPECT_THROW(table.complete(1), support::LogicError);
}

TEST(LeaseTableTest, SuggestedLeaseShrinksAsQueueDrains) {
    LeaseTable table(12, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    // ceil(12 / (2*3)) = 2 with a full queue...
    EXPECT_EQ(table.suggested_lease(3), 2u);
    (void)table.grant(0, 9);
    // ...down to 1 near the end (this is the work-stealing)...
    EXPECT_EQ(table.suggested_lease(3), 1u);
    (void)table.grant(1, 3);
    // ...and 0 when nothing is pending.
    EXPECT_EQ(table.suggested_lease(3), 0u);
    // Leases stay uncapped: a long queue is dealt in large slices.
    LeaseTable wide(100, [] {
        std::vector<std::size_t> order(100);
        for (std::size_t i = 0; i < 100; ++i) order[i] = i;
        return order;
    }());
    EXPECT_EQ(wide.suggested_lease(2), 25u);
}

TEST(LeaseTableTest, RejectsNonPermutationOrder) {
    EXPECT_THROW(LeaseTable(3, {0, 1}), support::LogicError);       // short
    EXPECT_THROW(LeaseTable(3, {0, 1, 1}), support::LogicError);    // dup
    EXPECT_THROW(LeaseTable(3, {0, 1, 3}), support::LogicError);    // range
    EXPECT_THROW(LeaseTable(3, {0, 1, 2}, {1.0, 1.0}), support::LogicError);  // costs
}

TEST(LeaseTableTest, BiggestCellsLeaseOneApieceToSeparateWorkers) {
    // Four big cells among twenty small ones (the 1536- and 96-well
    // prices). Count-based leases would deal ceil(24/6) = 4 cells, all
    // four big ones, to the first worker; cost-sized leases give each of
    // the first three workers one big cell.
    std::vector<double> costs(24, 304.0);
    for (const std::size_t big : {3u, 9u, 15u, 21u}) costs[big] = 2464.0;
    LeaseTable table(costs.size(), longest_first(costs), costs);
    for (int worker = 0; worker < 3; ++worker) {
        const std::size_t size = table.suggested_lease(3);
        EXPECT_EQ(table.grant(worker, size),
                  (std::vector<std::size_t>{3u + 6u * static_cast<std::size_t>(worker)}));
    }
    // The fourth big cell goes out alone too; the cheap cells behind it
    // go several to a lease (3 x 304 fits the share 20 x 304 / 6).
    EXPECT_EQ(table.grant(0, table.suggested_lease(3)), (std::vector<std::size_t>{21}));
    EXPECT_EQ(table.suggested_lease(3), 3u);
}

// -------------------------------------------------------------- cost model

namespace {

CampaignCell make_cell(std::size_t index, const std::string& solver, int samples,
                       int batch) {
    CampaignCell cell;
    cell.index = index;
    cell.solver = solver;
    cell.batch_size = batch;
    cell.config.solver = solver;
    cell.config.total_samples = samples;
    cell.config.batch_size = batch;
    return cell;
}

}  // namespace

TEST(CostModelTest, OrdersLongestExpectedFirst) {
    const std::vector<CampaignCell> cells = {
        make_cell(0, "random", 16, 8),
        make_cell(1, "bayesian", 128, 8),  // GP at N=128: by far the longest
        make_cell(2, "genetic", 16, 8),
        make_cell(3, "random", 16, 1),  // 16 batches of overhead beats 2
    };
    const std::vector<std::size_t> order = schedule_order(cells);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 3u);
    // Same sample/batch shape: genetic outweighs random per proposal.
    EXPECT_GT(expected_cell_cost(cells[2]), expected_cell_cost(cells[0]));
    EXPECT_EQ(order[2], 2u);
    EXPECT_EQ(order[3], 0u);
}

TEST(CostModelTest, FramePixelsRaiseTheCost) {
    // Same solver, samples and batch: the denser plate renders and reads
    // a larger frame every batch (800x600, 1600x1200, 3200x2400).
    const auto cost_on = [](int rows, int cols) {
        core::ColorPickerConfig config;
        config.solver = "genetic";
        config.total_samples = 32;
        config.batch_size = 8;
        config.plate_rows = rows;
        config.plate_cols = cols;
        return expected_run_cost(config);
    };
    EXPECT_GT(cost_on(32, 48), cost_on(16, 24));
    EXPECT_GT(cost_on(16, 24), cost_on(8, 12));
}

TEST(CostModelTest, ProbeCostsLessThanACellOnItsWorkcell) {
    // Seeds 17, 19 and 20 draw 96-, 384- and 1536-well workcells.
    for (const std::uint64_t seed : {17u, 19u, 20u}) {
        core::ColorPickerConfig cell;
        cell.solver = "genetic";
        cell.total_samples = 32;
        cell.batch_size = 8;
        cell = core::apply_workcell_spec(std::move(cell), core::generate_scenario(seed));
        EXPECT_LT(expected_run_cost(core::difficulty_probe_config(seed)),
                  expected_run_cost(cell))
            << "seed " << seed;
    }
}

TEST(CostModelTest, CellCostIsItsConfigCost) {
    CampaignCell cell = make_cell(0, "bayesian", 64, 4);
    cell.config.plate_rows = 16;
    cell.config.plate_cols = 24;
    EXPECT_EQ(expected_cell_cost(cell), expected_run_cost(cell.config));
}

TEST(CostModelTest, TiesKeepPositionOrderAndCostsArePositive) {
    const std::vector<CampaignCell> cells = {
        make_cell(0, "random", 16, 8),
        make_cell(1, "random", 16, 8),
        make_cell(2, "random", 16, 8),
    };
    EXPECT_EQ(schedule_order(cells), (std::vector<std::size_t>{0, 1, 2}));
    for (const CampaignCell& cell : cells) {
        EXPECT_GT(expected_cell_cost(cell), 0.0);
    }
    EXPECT_TRUE(schedule_order({}).empty());
}

// ------------------------------------------------------ lease-policy replay

namespace {

constexpr std::size_t kReplayWorkers = 3;

/// Returns how many cells the next lease carries, given the table and
/// the number of cells not yet leased.
using LeaseSize = std::function<std::size_t(const LeaseTable&, std::size_t pending)>;

/// Replays per-cell walls through a lease policy on a simulated clock: 3
/// workers say hello in slot order and run their leases in order,
/// acking each cell the moment it finishes; the coordinator grants on
/// hello, refills a worker whose ack leaves it at most one outstanding
/// cell, and tops up idle workers (the rules of fleet.cpp). Returns the
/// makespan.
double replay_makespan(const std::vector<double>& walls, LeaseTable table,
                       const LeaseSize& lease_size) {
    struct Worker {
        std::deque<std::size_t> queue;
        std::optional<std::size_t> running;
        double until = 0.0;
    };
    std::vector<Worker> workers(kReplayWorkers);
    std::size_t pending = walls.size();
    double now = 0.0;
    const auto grant = [&](std::size_t w) {
        for (const std::size_t cell :
             table.grant(static_cast<int>(w), lease_size(table, pending))) {
            workers[w].queue.push_back(cell);
            --pending;
        }
    };
    const auto start = [&](std::size_t w) {
        Worker& worker = workers[w];
        if (worker.running || worker.queue.empty()) return;
        worker.running = worker.queue.front();
        worker.queue.pop_front();
        worker.until = now + walls[*worker.running];
    };
    for (std::size_t w = 0; w < kReplayWorkers; ++w) {
        grant(w);
        start(w);
    }
    while (!table.all_done()) {
        std::optional<std::size_t> next;
        for (std::size_t w = 0; w < kReplayWorkers; ++w) {
            if (workers[w].running && (!next || workers[w].until < workers[*next].until)) {
                next = w;
            }
        }
        if (!next) throw support::LogicError("replay stalled with cells left");
        Worker& worker = workers[*next];
        now = worker.until;
        table.complete(*worker.running);
        worker.running.reset();
        if (table.outstanding(static_cast<int>(*next)) <= 1) grant(*next);
        start(*next);
        for (std::size_t w = 0; w < kReplayWorkers; ++w) {
            if (table.outstanding(static_cast<int>(w)) == 0) grant(w);
            start(w);
        }
    }
    return now;
}

/// Median cell walls (seconds) per plate format — 96, 384 and 1536
/// wells — from the worker journals of four `fleet_mixed` runs (base
/// seeds 1 and 1201, 3 workers x 1 thread, a 4-vCPU 2.1 GHz Xeon).
struct FormatWalls {
    double w96, w384, w1536;
};
constexpr FormatWalls kRecordedWalls[] = {
    {0.054, 0.184, 0.661},
    {0.071, 0.209, 0.813},
    {0.078, 0.208, 0.882},
    {0.075, 0.181, 0.895},
};

}  // namespace

TEST(LeasePolicyReplay, CostSizedLeasesFinishNearTheBoundOnFleetMixedWalls) {
    // The fleet_mixed grid: 12 generated workcells (six 96-, four 384-
    // and two 1536-well) x 2 replicates.
    const CampaignSpec spec = campaign_from_yaml(
        "campaign:\n"
        "  name: fleet_mixed\n"
        "  replicates: 2\n"
        "  base_seed: 1\n"
        "  seed_mode: per_cell\n"
        "grid:\n"
        "  workcells: [\"generated:seed=17..28\"]\n"
        "  solvers: [genetic]\n"
        "  batch_sizes: [8]\n"
        "experiment:\n"
        "  total_samples: 32\n");
    const std::vector<CampaignCell> grid = expand_grid(spec);
    ASSERT_EQ(grid.size(), 24u);
    const std::vector<double> costs = cell_costs(grid);
    std::vector<std::size_t> index_order(grid.size());
    std::iota(index_order.begin(), index_order.end(), std::size_t{0});

    const LeaseSize count_based = [](const LeaseTable&, std::size_t pending) {
        return (pending + 2 * kReplayWorkers - 1) / (2 * kReplayWorkers);
    };
    const LeaseSize cost_sized = [](const LeaseTable& table, std::size_t) {
        return table.suggested_lease(kReplayWorkers);
    };
    for (const FormatWalls& format : kRecordedWalls) {
        std::vector<double> walls;
        for (const CampaignCell& cell : grid) {
            walls.push_back(cell.config.plate_rows == 8    ? format.w96
                            : cell.config.plate_rows == 16 ? format.w384
                                                           : format.w1536);
        }
        const double total = std::accumulate(walls.begin(), walls.end(), 0.0);
        const double bound = std::max(*std::max_element(walls.begin(), walls.end()),
                                      total / static_cast<double>(kReplayWorkers));
        // Index order with count-based leases: the scheduler before the
        // cost model saw plate formats.
        const double index_count =
            replay_makespan(walls, LeaseTable(grid.size(), index_order), count_based);
        // The trap: cost order with count-based leases deals the first
        // worker every 1536-well cell.
        const double cost_order_count = replay_makespan(
            walls, LeaseTable(grid.size(), longest_first(costs)), count_based);
        const double cost_order_cost_sized = replay_makespan(
            walls, LeaseTable(grid.size(), longest_first(costs), costs), cost_sized);
        EXPECT_LE(cost_order_cost_sized, 1.05 * bound)
            << "walls " << format.w96 << "/" << format.w384 << "/" << format.w1536;
        EXPECT_GT(cost_order_count, index_count)
            << "walls " << format.w96 << "/" << format.w384 << "/" << format.w1536;
    }
}

// ------------------------------------------------------ SDLBENCH_WORKERS

TEST(PoolSizeFromEnvTest, ParsesPositiveIntegersOnly) {
    EXPECT_EQ(support::pool_size_from_env(nullptr), 0u);   // unset: default
    EXPECT_EQ(support::pool_size_from_env(""), 0u);
    EXPECT_EQ(support::pool_size_from_env("0"), 0u);       // 0 means default
    EXPECT_EQ(support::pool_size_from_env("1"), 1u);
    EXPECT_EQ(support::pool_size_from_env("16"), 16u);
    EXPECT_EQ(support::pool_size_from_env("two"), 0u);     // garbage: default
    EXPECT_EQ(support::pool_size_from_env("-3"), 0u);
    EXPECT_EQ(support::pool_size_from_env("4x"), 0u);
    EXPECT_EQ(support::pool_size_from_env("999999999999"), 0u);  // absurd
    // The 4096-thread cap holds for every digit count: values that used
    // to pass because the cap was checked before the last digit.
    EXPECT_EQ(support::pool_size_from_env("4096"), 4096u);
    EXPECT_EQ(support::pool_size_from_env("4097"), 0u);
    EXPECT_EQ(support::pool_size_from_env("10000"), 0u);
    EXPECT_EQ(support::pool_size_from_env("40961"), 0u);
}

// ------------------------------------------------------------- line buffer

TEST(LineBufferTest, ReassemblesLinesAcrossChunks) {
    support::LineBuffer buffer;
    const std::string part1 = "ack 3\nbe";
    const std::string part2 = "at\nack ";
    buffer.feed(part1.data(), part1.size());
    EXPECT_EQ(buffer.next_line(), "ack 3");
    EXPECT_FALSE(buffer.next_line().has_value());  // "be" is a torn tail
    buffer.feed(part2.data(), part2.size());
    EXPECT_EQ(buffer.next_line(), "beat");
    EXPECT_FALSE(buffer.next_line().has_value());
    const std::string part3 = "7\n\n";
    buffer.feed(part3.data(), part3.size());
    EXPECT_EQ(buffer.next_line(), "ack 7");
    EXPECT_EQ(buffer.next_line(), "");  // empty line is a (malformed) line
    EXPECT_FALSE(buffer.next_line().has_value());
}

// -------------------------------------------------------------- subprocess

#if !defined(_WIN32)

TEST(SubprocessTest, SpawnEchoRoundTrip) {
    // cat echoes our lines back: exercises spawn, both pipes, EOF on
    // close_stdin, and clean reaping.
    support::ignore_sigpipe();
    support::ChildProcess child = support::spawn_child({"/bin/cat"});
    ASSERT_TRUE(child.valid());
    ASSERT_TRUE(support::write_line_fd(child.stdin_fd(), "hello fleet"));
    support::LineBuffer buffer;
    std::optional<std::string> line;
    for (int i = 0; i < 100 && !line; ++i) {
        const auto ready = support::poll_readable({child.stdout_fd()}, 100);
        if (ready[0]) (void)support::read_some(child.stdout_fd(), buffer);
        line = buffer.next_line();
    }
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "hello fleet");
    child.close_stdin();  // cat exits on stdin EOF
    const int status = support::wait_exit(child);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SubprocessTest, ExtraEnvOverridesInherited) {
    support::ChildProcess child = support::spawn_child(
        {"/bin/sh", "-c", "printf '%s\\n' \"$SDLBENCH_WORKERS\""},
        {"SDLBENCH_WORKERS=7"});
    ASSERT_TRUE(child.valid());
    support::LineBuffer buffer;
    std::optional<std::string> line;
    for (int i = 0; i < 100 && !line; ++i) {
        const auto ready = support::poll_readable({child.stdout_fd()}, 100);
        if (ready[0]) {
            if (support::read_some(child.stdout_fd(), buffer) == 0) break;
        }
        line = buffer.next_line();
    }
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "7");
    (void)support::wait_exit(child);
}

TEST(SubprocessTest, KillHardReapsAndWriteToDeadChildFails) {
    support::ignore_sigpipe();
    support::ChildProcess child = support::spawn_child({"/bin/cat"});
    ASSERT_TRUE(child.valid());
    support::kill_hard(child);
    const int status = support::wait_exit(child);
    EXPECT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    // The pipe is now read-closed; the write surfaces as false, not a
    // SIGPIPE crash — the coordinator's worker-death signal.
    bool ok = true;
    for (int i = 0; i < 1000 && ok; ++i) {
        ok = support::write_line_fd(child.stdin_fd(), "lease 1");
    }
    EXPECT_FALSE(ok);
}

TEST(SubprocessTest, ExecFailureExits127) {
    support::ChildProcess child =
        support::spawn_child({"/nonexistent/binary/for/sure"});
    ASSERT_TRUE(child.valid());
    const int status = support::wait_exit(child);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 127);
}

#endif  // !_WIN32
