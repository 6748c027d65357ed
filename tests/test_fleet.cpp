// Tests for the fleet building blocks: the line protocol, the pure
// Coordinator (claim-order cost-sized leases, revocation, the loud
// duplicate guard, crash blame and quarantine, respawn backoff and
// budget, heartbeat timeouts, top-ups), the cost model and its cell
// ordering, a replay of recorded cell walls through the Coordinator,
// seeded schedules that check its invariants after every event and a
// resume from the history so far, the SDLBENCH_WORKERS parser, and the
// subprocess/pipe helpers (POSIX only).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include <csignal>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/fleet.hpp"
#include "core/scenario_gen.hpp"
#include "core/workcell_spec.hpp"
#include "support/common.hpp"
#include "support/random.hpp"
#include "support/subprocess.hpp"
#include "support/thread_pool.hpp"

using namespace sdl;
using namespace sdl::campaign;

// ---------------------------------------------------------------- protocol

TEST(FleetProtocol, WorkerLinesRoundTrip) {
    const auto hello = parse_worker_line(format_hello());
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->kind, WorkerMsgKind::Hello);
    EXPECT_EQ(format_hello(), "hello");

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
    EXPECT_FALSE(parse_worker_line("hello 4321").has_value());  // hello is bare
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

// -------------------------------------------------------------- coordinator

namespace {

using Cells = std::vector<std::size_t>;

std::vector<std::size_t> index_order(std::size_t n) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    return order;
}

}  // namespace

TEST(CoordinatorTest, DealsFollowTheClaimOrder) {
    Coordinator coord(1, {2, 0, 3, 1});
    EXPECT_EQ(coord.spawn(0, 0.0), 0);
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{2, 0}));  // 4 pending / (2 x 1 worker)
    EXPECT_TRUE(coord.hello(0, 0.1).empty());      // a repeat hello deals nothing
    coord.complete(2);
    EXPECT_EQ(coord.acked(0, 1.0), (Cells{3}));
    coord.complete(0);
    EXPECT_EQ(coord.acked(0, 2.0), (Cells{1}));
    coord.complete(3);
    EXPECT_TRUE(coord.acked(0, 3.0).empty());  // nothing pending
    EXPECT_EQ(coord.outstanding(0), 1u);
}

TEST(CoordinatorTest, CompleteTwiceThrows) {
    Coordinator coord(1, {0, 1});
    coord.complete(1);
    EXPECT_THROW(coord.complete(1), support::LogicError);
    EXPECT_THROW(coord.complete(99), support::LogicError);  // out of range
    coord.complete(0);
    EXPECT_TRUE(coord.all_done());
}

TEST(CoordinatorTest, RevokedCellsReturnToTheFrontInClaimOrder) {
    // Cheap cells 4, 3, 2 fit one share; 1 and 0 cost ten times more.
    Coordinator coord(2, {4, 3, 2, 1, 0}, {10.0, 10.0, 1.0, 1.0, 1.0});
    (void)coord.spawn(0, 0.0);
    (void)coord.spawn(1, 0.0);
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{4, 3, 2}));
    coord.complete(3);  // journaled before the death
    const Coordinator::Death death = coord.died(0, 1.0);
    EXPECT_EQ(death.revoked, (Cells{4, 2}));  // claim order
    EXPECT_EQ(coord.outstanding(0), 0u);
    // Revoked cells go out before the untouched tail (1, 0).
    EXPECT_EQ(coord.hello(1, 1.0), (Cells{4, 2}));
}

TEST(CoordinatorTest, StaleQueueEntriesAreNeverDealt) {
    // A revoked cell's journal record can surface after the revoke; once
    // complete, its queue entry must be skipped.
    Coordinator coord(1, {0, 1});
    (void)coord.spawn(0, 0.0);
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{0}));
    EXPECT_EQ(coord.died(0, 1.0).revoked, (Cells{0}));
    coord.complete(0);  // salvaged late
    EXPECT_EQ(coord.due(1.25), (Cells{0}));
    EXPECT_EQ(coord.spawn(0, 1.25), 1);
    EXPECT_EQ(coord.hello(0, 1.25), (Cells{1}));
    coord.complete(1);
    EXPECT_TRUE(coord.all_done());
}

TEST(CoordinatorTest, CrashVotesAreDedupedByIncarnation) {
    Coordinator coord(3, {0, 1, 2});
    // The same (slot, generation) blamed twice is one conviction vote.
    coord.replay_crash(0, 1, 0);
    coord.replay_crash(0, 1, 0);
    EXPECT_EQ(coord.crash_count(0), 1u);
    coord.replay_crash(0, 1, 1);  // the slot's next generation
    coord.replay_crash(0, 2, 0);
    EXPECT_EQ(coord.crash_count(0), 3u);
    EXPECT_EQ(coord.crash_count(1), 0u);
    // A blame on an already-finished cell is ignored (the heuristic
    // guessed wrong; the result stands).
    coord.complete(1);
    coord.replay_crash(1, 0, 0);
    EXPECT_EQ(coord.crash_count(1), 0u);
}

TEST(CoordinatorTest, QuarantinedCellIsNeverDealtButCountsTowardTheEnd) {
    Coordinator coord(2, {2, 1, 0});
    coord.replay_quarantine(2);
    EXPECT_EQ(coord.state(2), Coordinator::CellState::Quarantined);
    EXPECT_EQ(coord.quarantined_count(), 1u);
    EXPECT_EQ(coord.quarantined(), (Cells{2}));
    (void)coord.spawn(0, 0.0);
    (void)coord.spawn(1, 0.0);
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{1}));
    EXPECT_EQ(coord.hello(1, 0.0), (Cells{0}));
    // Crash votes against a quarantined cell no longer accumulate.
    coord.replay_crash(2, 1, 0);
    EXPECT_EQ(coord.crash_count(2), 0u);
    coord.complete(1);
    coord.complete(0);
    EXPECT_TRUE(coord.all_done());
    EXPECT_EQ(coord.done_count(), 2u);
}

TEST(CoordinatorTest, QuarantineGuardsAgainstBookkeepingBugs) {
    Coordinator coord(1, {0, 1});
    coord.complete(0);
    // Quarantining a finished cell would discard a good result.
    EXPECT_THROW(coord.replay_quarantine(0), support::LogicError);
    coord.replay_quarantine(1);
    coord.replay_quarantine(1);  // a ledger replayed twice convicts once
    EXPECT_EQ(coord.quarantined_count(), 1u);
    // Completion after quarantine is a coordinator logic error.
    EXPECT_THROW(coord.complete(1), support::LogicError);
}

TEST(CoordinatorTest, LeasesShrinkAsTheQueueDrains) {
    Coordinator coord(3, index_order(12));
    for (std::size_t slot = 0; slot < 3; ++slot) (void)coord.spawn(slot, 0.0);
    // 12 / (2 x 3) = 2 with a full queue...
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{0, 1}));
    // ...down to 1 near the end (this is the work-stealing)...
    EXPECT_EQ(coord.hello(1, 0.0), (Cells{2}));
    EXPECT_EQ(coord.hello(2, 0.0), (Cells{3}));
    // ...and 0 when nothing is pending.
    Coordinator drained(1, index_order(2));
    (void)drained.spawn(0, 0.0);
    EXPECT_EQ(drained.hello(0, 0.0), (Cells{0}));
    drained.complete(0);
    EXPECT_EQ(drained.acked(0, 1.0), (Cells{1}));
    drained.complete(1);
    EXPECT_TRUE(drained.acked(0, 2.0).empty());
    // Leases stay uncapped: a long queue is dealt in large slices.
    Coordinator wide(2, index_order(100));
    (void)wide.spawn(0, 0.0);
    (void)wide.spawn(1, 0.0);
    EXPECT_EQ(wide.hello(0, 0.0).size(), 25u);
}

TEST(CoordinatorTest, BiggestCellsLeaseOneApieceToSeparateWorkers) {
    // Four big cells among twenty small ones (the 1536- and 96-well
    // prices). Count-sized leases would deal 24 / 6 = 4 cells, all four
    // big ones, to the first worker; cost-sized leases give each of the
    // first three workers one big cell.
    std::vector<double> costs(24, 304.0);
    for (const std::size_t big : {3u, 9u, 15u, 21u}) costs[big] = 2464.0;
    std::vector<std::size_t> order = longest_first(costs);
    Coordinator coord(3, std::move(order), costs);
    for (std::size_t slot = 0; slot < 3; ++slot) (void)coord.spawn(slot, 0.0);
    for (std::size_t slot = 0; slot < 3; ++slot) {
        EXPECT_EQ(coord.hello(slot, 0.0), (Cells{3 + 6 * slot}));
    }
    // The fourth big cell goes out alone too; the cheap cells behind it
    // go several to a lease (3 x 304 fits the share 20 x 304 / 6).
    coord.complete(3);
    EXPECT_EQ(coord.acked(0, 1.0), (Cells{21}));
    coord.complete(21);
    EXPECT_EQ(coord.acked(0, 2.0).size(), 3u);
}

TEST(CoordinatorTest, RejectsABadOrderOrCostVector) {
    EXPECT_THROW(Coordinator(3, {0, 1, 1}), support::LogicError);  // duplicate
    EXPECT_THROW(Coordinator(3, {0, 1, 3}), support::LogicError);  // out of range
    EXPECT_THROW(Coordinator(3, {0, 1, 2}, {1.0, 1.0}), support::LogicError);  // costs
}

TEST(CoordinatorTest, BackoffDoublesToTheCapAndTheBudgetRetiresTheSlot) {
    // A slot whose every spawn fails at once: each death is a failed
    // spawn of the fresh generation.
    Coordinator coord(1, {0});
    double now = 0.0;
    for (const double backoff : {0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0, 5.0}) {
        ASSERT_EQ(coord.due(now), (Cells{0}));
        (void)coord.spawn(0, now);
        const Coordinator::Death death = coord.died(0, now);
        EXPECT_FALSE(death.suspect.has_value());
        ASSERT_TRUE(death.respawn_in.has_value());
        EXPECT_EQ(*death.respawn_in, backoff);
        EXPECT_TRUE(coord.due(now + backoff - 0.01).empty());
        now += backoff;
    }
    // The ninth death spends the budget of 8 respawns.
    (void)coord.spawn(0, now);
    const Coordinator::Death last = coord.died(0, now);
    EXPECT_TRUE(last.retired);
    EXPECT_FALSE(last.respawn_in.has_value());
    EXPECT_TRUE(coord.due(now + 1000.0).empty());
    EXPECT_TRUE(coord.exhausted());
    EXPECT_EQ(coord.generation(0), 8);
}

TEST(CoordinatorTest, AnAckResetsTheBackoff) {
    Coordinator coord(1, {0, 1, 2, 3});
    (void)coord.spawn(0, 0.0);
    EXPECT_EQ(*coord.died(0, 0.0).respawn_in, 0.25);
    (void)coord.spawn(0, 0.25);
    EXPECT_EQ(*coord.died(0, 0.25).respawn_in, 0.5);
    (void)coord.spawn(0, 0.75);
    const Cells lease = coord.hello(0, 0.75);
    coord.complete(lease.front());
    (void)coord.acked(0, 1.0);
    EXPECT_EQ(*coord.died(0, 2.0).respawn_in, 0.25);
}

TEST(CoordinatorTest, SilentWorkersTimeOut) {
    Coordinator coord(2, {0, 1});
    (void)coord.spawn(0, 0.0);
    (void)coord.spawn(1, 0.0);
    coord.heard(1, 20.0);
    EXPECT_TRUE(coord.hung(30.0).empty());  // 30 s silent is not past 30 s
    EXPECT_EQ(coord.hung(30.5), (Cells{0}));
    EXPECT_EQ(coord.hung(50.5), (Cells{0, 1}));
    // The poll deadline is the first timeout, capped.
    EXPECT_EQ(coord.next_deadline(10.0, 0.5), 0.5);
    EXPECT_DOUBLE_EQ(coord.next_deadline(29.75, 0.5), 0.25);
    // ...or the first due respawn.
    (void)coord.died(0, 10.0);
    EXPECT_DOUBLE_EQ(coord.next_deadline(10.0, 0.5), 0.25);
}

TEST(CoordinatorTest, IdleWorkersAreToppedUp) {
    Coordinator coord(2, {0, 1, 2, 3});
    (void)coord.spawn(0, 0.0);
    (void)coord.spawn(1, 0.0);
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{0}));
    EXPECT_EQ(coord.hello(1, 0.0), (Cells{1}));
    coord.complete(0);
    EXPECT_EQ(coord.acked(0, 1.0), (Cells{2}));
    coord.complete(1);
    EXPECT_EQ(coord.acked(1, 1.0), (Cells{3}));
    coord.complete(3);
    EXPECT_TRUE(coord.acked(1, 2.0).empty());  // idle: nothing pending
    EXPECT_TRUE(coord.top_up().empty());
    // A death puts cell 2 back; the idle worker gets it, the respawned
    // slot (no hello yet) does not.
    (void)coord.died(0, 2.0);
    (void)coord.spawn(0, 2.25);
    const auto leases = coord.top_up();
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(leases[0].first, 1u);
    EXPECT_EQ(leases[0].second, (Cells{2}));
    EXPECT_TRUE(coord.top_up().empty());
}

TEST(CoordinatorTest, AResumeStartsOnlyTheWorkersItsOpenCellsNeed) {
    // A coordinator-kill resume of a five-cell campaign: the ledger spawned
    // three workers, and their journals hold 4 of the 5 cells.
    Coordinator coord(3, index_order(5));
    for (std::size_t cell = 0; cell < 4; ++cell) coord.complete(cell);
    for (std::size_t slot = 0; slot < 3; ++slot) coord.replay_spawn(slot, 0);
    EXPECT_EQ(coord.due(0.0), (Cells{0}));
    EXPECT_EQ(coord.spawn(0, 0.0), 1);
    EXPECT_TRUE(coord.due(0.0).empty());
    EXPECT_EQ(coord.next_deadline(0.0, 0.5), 0.5);  // no wakeups for held-back slots
    EXPECT_EQ(coord.hello(0, 0.0), (Cells{4}));
    // With its one worker dead, the open cell gets a worker again.
    (void)coord.died(0, 1.0);
    EXPECT_EQ(coord.due(1.25), (Cells{0}));
}

TEST(CoordinatorTest, ThreeDistinctIncarnationsQuarantineACell) {
    Coordinator coord(1, {0, 1});
    double now = 0.0;
    for (int generation = 0; generation < 3; ++generation) {
        ASSERT_EQ(coord.due(now), (Cells{0}));
        EXPECT_EQ(coord.spawn(0, now), generation);
        EXPECT_EQ(coord.hello(0, now), (Cells{0}));
        const Coordinator::Death death = coord.died(0, now);
        EXPECT_EQ(death.suspect, std::optional<std::size_t>{0});
        EXPECT_EQ(death.quarantined, generation == 2);
        now += *death.respawn_in;
    }
    EXPECT_EQ(coord.state(0), Coordinator::CellState::Quarantined);
    EXPECT_EQ(coord.crash_count(0), 3u);
    (void)coord.spawn(0, now);
    EXPECT_EQ(coord.hello(0, now), (Cells{1}));
    coord.complete(1);
    EXPECT_TRUE(coord.all_done());
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

/// Replays per-cell walls through a Coordinator on a simulated clock:
/// its slots spawn at 0 and say hello in slot order, each worker runs its
/// leases in order and acks each cell the moment it finishes, and idle
/// workers are topped up after every ack. Returns the makespan.
double replay_makespan(const std::vector<double>& walls, Coordinator coord) {
    struct Worker {
        std::deque<std::size_t> queue;
        std::optional<std::size_t> running;
        double until = 0.0;
    };
    std::vector<Worker> workers(kReplayWorkers);
    double now = 0.0;
    const auto take = [&](std::size_t w, const std::vector<std::size_t>& lease) {
        workers[w].queue.insert(workers[w].queue.end(), lease.begin(), lease.end());
    };
    const auto start = [&](std::size_t w) {
        Worker& worker = workers[w];
        if (worker.running || worker.queue.empty()) return;
        worker.running = worker.queue.front();
        worker.queue.pop_front();
        worker.until = now + walls[*worker.running];
    };
    for (std::size_t w = 0; w < kReplayWorkers; ++w) (void)coord.spawn(w, now);
    for (std::size_t w = 0; w < kReplayWorkers; ++w) {
        take(w, coord.hello(w, now));
        start(w);
    }
    while (!coord.all_done()) {
        std::optional<std::size_t> next;
        for (std::size_t w = 0; w < kReplayWorkers; ++w) {
            if (workers[w].running && (!next || workers[w].until < workers[*next].until)) {
                next = w;
            }
        }
        if (!next) throw support::LogicError("replay stalled with cells left");
        Worker& worker = workers[*next];
        now = worker.until;
        coord.complete(*worker.running);
        worker.running.reset();
        take(*next, coord.acked(*next, now));
        for (const auto& [w, lease] : coord.top_up()) take(w, lease);
        for (std::size_t w = 0; w < kReplayWorkers; ++w) start(w);
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
        // Equal costs give count-sized leases. Index order, count-sized:
        // the scheduler before the cost model saw plate formats.
        const double index_count =
            replay_makespan(walls, Coordinator(kReplayWorkers, index_order(grid.size())));
        // The trap: cost order with count-sized leases deals the first
        // worker every 1536-well cell.
        const double cost_order_count =
            replay_makespan(walls, Coordinator(kReplayWorkers, longest_first(costs)));
        const double cost_order_cost_sized =
            replay_makespan(walls, Coordinator(kReplayWorkers, longest_first(costs),
                                               costs));
        EXPECT_LE(cost_order_cost_sized, 1.05 * bound)
            << "walls " << format.w96 << "/" << format.w384 << "/" << format.w1536;
        EXPECT_GT(cost_order_count, index_count)
            << "walls " << format.w96 << "/" << format.w384 << "/" << format.w1536;
    }
}

// ---------------------------------------------------------- seeded schedules

namespace {

/// Thrown by SimFleet when an invariant breaks; the test reports it with
/// the schedule's seed.
struct Broken : std::logic_error {
    using std::logic_error::logic_error;
};

void require(bool holds, const char* what) {
    if (!holds) throw Broken(what);
}

/// A fleet with no processes around one Coordinator: what the IO shell
/// reports and carries out, on a simulated clock. A worker is the queue
/// of cells it was dealt, run front first; its journal is its Record
/// entries in `log`. Every operation checks the invariants afterwards.
class SimFleet {
public:
    SimFleet(std::size_t slots, std::vector<double> costs)
        : costs_(std::move(costs)),
          coord_(slots, longest_first(costs_), costs_),
          workers_(slots),
          done_(costs_.size()),
          quarantined_(costs_.size()),
          blamed_(costs_.size()),
          holders_(costs_.size()) {}

    [[nodiscard]] const Coordinator& coord() const { return coord_; }
    [[nodiscard]] bool finished() const {
        return coord_.all_done() || coord_.exhausted();
    }
    [[nodiscard]] bool alive(std::size_t slot) const { return workers_[slot].alive; }
    [[nodiscard]] bool greeted(std::size_t slot) const { return workers_[slot].greeted; }
    [[nodiscard]] const std::deque<std::size_t>& queue(std::size_t slot) const {
        return workers_[slot].queue;
    }
    [[nodiscard]] std::size_t slots() const { return workers_.size(); }
    double now = 0.0;

    /// The poll loop's first step: spawn every due slot; `fail` decides
    /// whether a spawn fails at once.
    void spawn_due(const std::function<bool()>& fail) {
        const std::vector<std::size_t> due = coord_.due(now);
        for (const std::size_t slot : due) {
            Worker& w = workers_[slot];
            require(!w.alive, "a live slot came due for a respawn");
            std::size_t live = 0;
            for (const Worker& other : workers_) live += other.alive ? 1 : 0;
            std::size_t open = 0;
            for (std::size_t cell = 0; cell < costs_.size(); ++cell) {
                open += done_[cell] || quarantined_[cell] ? 0 : 1;
            }
            require(live < open, "no spawn while the live workers cover the open cells");
            const int generation = coord_.spawn(slot, now);
            require(generation == w.generation + 1, "generations must count up by one");
            w = Worker{true, false, generation, {}};
            if (fail()) {
                w.alive = false;
                settle(slot, coord_.died(slot, now));
            } else {
                log_.push_back({Entry::Spawn, slot, generation, 0});
            }
        }
        if (!due.empty()) check();
    }
    void hello(std::size_t slot) {
        const bool repeat = workers_[slot].greeted;
        workers_[slot].greeted = true;
        const std::vector<std::size_t> lease = coord_.hello(slot, now);
        require(!repeat || lease.empty(), "a repeat hello deals nothing");
        deliver(slot, lease);
        check();
    }
    void beat(std::size_t slot) {
        coord_.heard(slot, now);
        check();
    }
    /// The worker journals its front cell and acks it.
    void ack(std::size_t slot) {
        journal_front(slot);
        deliver(slot, coord_.acked(slot, now));
        check();
    }
    /// The worker dies, after journaling its front cell when `appended`
    /// (the kill between the durable append and the ack).
    void kill(std::size_t slot, bool appended) {
        if (appended && !workers_[slot].queue.empty()) journal_front(slot);
        workers_[slot].alive = false;
        settle(slot, coord_.died(slot, now));
    }
    /// The worker goes silent: the clock jumps past the heartbeat
    /// timeout while every other live worker keeps beating.
    void hang(std::size_t slot) {
        now += 31.0;
        for (std::size_t other = 0; other < workers_.size(); ++other) {
            if (other != slot && workers_[other].alive) coord_.heard(other, now);
        }
        require(coord_.hung(now) == std::vector<std::size_t>{slot},
                "exactly the silent worker is hung");
        kill(slot, false);
    }
    /// The poll loop's last step.
    void top_up() {
        const auto leases = coord_.top_up();
        for (const auto& [slot, lease] : leases) deliver(slot, lease);
        if (!leases.empty()) check();
    }
    /// The coordinator is killed: each orphan may journal its running
    /// cell before the resume's sweep kills it, and a fresh Coordinator
    /// replays the ledger and the journals.
    void restart(const std::function<bool()>& orphan_appends) {
        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            Worker& w = workers_[slot];
            if (w.alive && !w.queue.empty() && orphan_appends()) {
                done_[w.queue.front()] = true;
                log_.push_back({Entry::Record, slot, w.generation, w.queue.front()});
            }
            w.alive = false;
            w.queue.clear();
        }
        coord_ = replay(log_.size());
        // A spawn that failed at once left no ledger event, so the
        // resumed slot may reuse its generation number.
        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            workers_[slot].generation = coord_.generation(slot);
        }
        check();
    }
    /// A resume from the history so far must reproduce the live
    /// Coordinator's done and quarantined sets, the crash counts of
    /// unfinished cells, and the generations of the spawns it ledgered.
    /// (A resume applies a journal's records at its spawn, ahead of later
    /// blames, so a finished cell may count fewer votes; and a spawn that
    /// failed at once is not in the ledger.)
    void check_resume() const {
        const Coordinator resumed = replay(log_.size());
        require(resumed.done_count() == coord_.done_count() &&
                    resumed.quarantined() == coord_.quarantined(),
                "a resume reaches the same done and quarantined sets");
        for (std::size_t cell = 0; cell < costs_.size(); ++cell) {
            if (done_[cell]) {
                require(resumed.state(cell) == Coordinator::CellState::Done,
                        "a resume completes every journaled cell");
            } else {
                require(resumed.crash_count(cell) == coord_.crash_count(cell),
                        "a resume reaches the same crash counts");
            }
        }
        std::vector<int> ledgered(workers_.size(), -1);
        for (const Entry& e : log_) {
            if (e.kind == Entry::Spawn) ledgered[e.slot] = e.generation;
        }
        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            require(resumed.generation(slot) == ledgered[slot],
                    "a resume continues every slot's generations");
        }
    }
    /// Every cell resolved, each completed exactly once.
    void check_resolved() const {
        require(coord_.all_done(), "the campaign resolves every cell");
        std::vector<int> records(costs_.size(), 0);
        for (const Entry& e : log_) {
            if (e.kind == Entry::Record) ++records[e.cell];
        }
        for (std::size_t cell = 0; cell < costs_.size(); ++cell) {
            require(records[cell] == (quarantined_[cell] ? 0 : 1),
                    "every cell is journaled once, or quarantined unjournaled");
        }
    }

private:
    struct Worker {
        bool alive = false;
        bool greeted = false;
        int generation = -1;
        std::deque<std::size_t> queue;
    };
    /// The durable history: ledger events, and worker journal records.
    struct Entry {
        enum Kind { Spawn, Record, Crash, Quarantine } kind;
        std::size_t slot;
        int generation;
        std::size_t cell;
    };

    /// What `sdlbench_fleet --resume` does with the same history.
    [[nodiscard]] Coordinator replay(std::size_t prefix) const {
        Coordinator coord(workers_.size(), longest_first(costs_), costs_);
        for (std::size_t i = 0; i < prefix; ++i) {
            const Entry& e = log_[i];
            if (e.kind == Entry::Spawn) {
                for (std::size_t j = i + 1; j < prefix; ++j) {
                    const Entry& r = log_[j];
                    if (r.kind == Entry::Record && r.slot == e.slot &&
                        r.generation == e.generation) {
                        coord.complete(r.cell);
                    }
                }
                coord.replay_spawn(e.slot, e.generation);
            } else if (e.kind == Entry::Crash) {
                coord.replay_crash(e.cell, e.slot, e.generation);
            } else if (e.kind == Entry::Quarantine) {
                coord.replay_quarantine(e.cell);
            }
        }
        return coord;
    }

    void journal_front(std::size_t slot) {
        Worker& w = workers_[slot];
        require(!w.queue.empty(), "a worker journals only cells it was dealt");
        const std::size_t cell = w.queue.front();
        w.queue.pop_front();
        coord_.complete(cell);
        done_[cell] = true;
        log_.push_back({Entry::Record, slot, w.generation, cell});
    }

    void deliver(std::size_t slot, const std::vector<std::size_t>& lease) {
        Worker& w = workers_[slot];
        for (const std::size_t cell : lease) {
            require(w.alive, "nothing is dealt to a dead slot");
            require(!done_[cell] && !quarantined_[cell],
                    "nothing is dealt once resolved");
            for (const Worker& other : workers_) {
                require(std::find(other.queue.begin(), other.queue.end(), cell) ==
                            other.queue.end(),
                        "a cell is leased to one worker at a time");
            }
            w.queue.push_back(cell);
        }
    }

    void settle(std::size_t slot, const Coordinator::Death& death) {
        Worker& w = workers_[slot];
        std::vector<std::size_t> held(w.queue.begin(), w.queue.end());
        std::vector<std::size_t> revoked = death.revoked;
        std::sort(held.begin(), held.end());
        std::sort(revoked.begin(), revoked.end());
        require(revoked == held, "a death revokes exactly the cells the worker held");
        w.queue.clear();
        const std::optional<std::size_t> first =
            death.revoked.empty() ? std::nullopt
                                  : std::optional<std::size_t>(death.revoked.front());
        require(death.suspect == first, "a death blames the first cell it gives back");
        if (death.suspect) {
            const std::size_t cell = *death.suspect;
            auto& votes = blamed_[cell];
            const std::pair<std::size_t, int> who{slot, w.generation};
            if (std::find(votes.begin(), votes.end(), who) == votes.end()) {
                votes.push_back(who);
            }
            require(death.quarantined == (votes.size() >= 3),
                    "a cell is quarantined at its third distinct incarnation's blame");
            log_.push_back({Entry::Crash, slot, w.generation, cell});
            if (death.quarantined) {
                quarantined_[cell] = true;
                log_.push_back({Entry::Quarantine, 0, 0, cell});
            }
        }
        require(death.retired || death.respawn_in.has_value() || coord_.all_done(),
                "a death respawns or retires the slot, or the campaign is over");
        check();
    }

    /// Each cell is exactly one of: pending, leased to exactly one live
    /// worker, done, or quarantined — and the Coordinator agrees.
    void check() const {
        std::vector<int>& holders = holders_;
        std::fill(holders.begin(), holders.end(), 0);
        for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
            const Worker& w = workers_[slot];
            require(w.alive || w.queue.empty(), "a dead worker holds no cell");
            require(coord_.outstanding(slot) == w.queue.size(),
                    "the Coordinator knows what each worker holds");
            for (const std::size_t cell : w.queue) ++holders[cell];
        }
        std::size_t done = 0;
        std::size_t quarantined = 0;
        for (std::size_t cell = 0; cell < costs_.size(); ++cell) {
            using State = Coordinator::CellState;
            const State expected = done_[cell]          ? State::Done
                                   : quarantined_[cell] ? State::Quarantined
                                   : holders[cell] > 0  ? State::Leased
                                                        : State::Pending;
            require(holders[cell] <= 1 &&
                        (holders[cell] == 0 || expected == State::Leased),
                    "a cell is in exactly one state");
            require(coord_.state(cell) == expected,
                    "the Coordinator agrees on every cell");
            done += done_[cell] ? 1 : 0;
            quarantined += quarantined_[cell] ? 1 : 0;
        }
        require(coord_.done_count() == done && coord_.quarantined_count() == quarantined,
                "done and quarantined counts agree");
    }

    std::vector<double> costs_;
    Coordinator coord_;
    std::vector<Worker> workers_;
    std::vector<char> done_;
    std::vector<char> quarantined_;
    std::vector<std::vector<std::pair<std::size_t, int>>> blamed_;
    std::vector<Entry> log_;
    mutable std::vector<int> holders_;  // check()'s scratch
};

struct ScheduleRun {
    std::size_t events = 0;
    bool resolved = false;  ///< all cells resolved, not every slot retired
};

/// One random schedule: grid size, slot count, costs, and every event's
/// kind and victim drawn from `seed`.
ScheduleRun run_random_schedule(std::uint64_t seed) {
    support::Rng rng(seed);
    const std::size_t cells = 1 + rng.uniform_int(12);
    const std::size_t slots = 1 + rng.uniform_int(4);
    std::vector<double> costs(cells);
    for (double& cost : costs) {
        cost = rng.bernoulli(0.2) ? rng.uniform(20.0, 100.0) : rng.uniform(1.0, 10.0);
    }
    SimFleet sim(slots, std::move(costs));
    const auto spawn_fails = [&rng] { return rng.bernoulli(0.05); };
    const std::size_t resume_at = rng.uniform_int(40);
    std::size_t events = 0;
    while (!sim.finished()) {
        require(events < 5000, "the schedule terminates");
        if (events == resume_at) sim.check_resume();
        sim.spawn_due(spawn_fails);
        std::vector<std::size_t> live;
        for (std::size_t slot = 0; slot < sim.slots(); ++slot) {
            if (sim.alive(slot)) live.push_back(slot);
        }
        if (live.empty()) {
            sim.now += std::max(0.0, sim.coord().next_deadline(sim.now, 10.0));
            ++events;
            continue;
        }
        const std::size_t slot = live[rng.uniform_int(live.size())];
        const std::uint64_t roll = rng.uniform_int(100);
        sim.now += rng.uniform(0.0, 0.5);
        if (roll < 10) {
            sim.kill(slot, rng.bernoulli(0.5));  // half of them after an append
        } else if (roll < 13) {
            sim.hang(slot);
        } else if (!sim.greeted(slot) || roll < 15) {
            sim.hello(slot);
        } else if (roll < 75 && !sim.queue(slot).empty()) {
            sim.ack(slot);
        } else {
            sim.beat(slot);
        }
        sim.top_up();
        ++events;
    }
    sim.check_resume();
    if (sim.coord().all_done()) sim.check_resolved();
    return {events, sim.coord().all_done()};
}

/// A simulated worker that runs its front cell to the end: `poison` kills
/// every worker that starts it, any other cell is journaled and acked.
void run_to_end(SimFleet& sim, std::optional<std::size_t> poison = std::nullopt) {
    const auto never = [] { return false; };
    for (int step = 0; !sim.finished(); ++step) {
        require(step < 1000, "the schedule terminates");
        sim.spawn_due(never);
        bool acted = false;
        for (std::size_t slot = 0; slot < sim.slots(); ++slot) {
            const bool idle = sim.greeted(slot) && sim.queue(slot).empty();
            if (!sim.alive(slot) || idle) continue;
            if (!sim.greeted(slot)) {
                sim.hello(slot);
            } else if (sim.queue(slot).front() == poison) {
                sim.kill(slot, false);
            } else {
                sim.ack(slot);
            }
            acted = true;
        }
        sim.top_up();
        if (!acted) sim.now += std::max(0.0, sim.coord().next_deadline(sim.now, 1.0));
    }
}

}  // namespace

TEST(CoordinatorSchedules, SeededSchedulesKeepEveryInvariant) {
    constexpr std::uint64_t kSchedules = 100000;
    std::size_t events = 0;
    std::size_t resolved = 0;
    for (std::uint64_t seed = 0; seed < kSchedules; ++seed) {
        try {
            const ScheduleRun run = run_random_schedule(seed);
            events += run.events;
            resolved += run.resolved ? 1 : 0;
        } catch (const std::exception& e) {
            FAIL() << "schedule seed " << seed << ": " << e.what();
        }
    }
    // Both endings occur: the campaign resolves, or every slot retires.
    EXPECT_GT(resolved, kSchedules / 2);
    EXPECT_LT(resolved, kSchedules);
    EXPECT_GT(events, kSchedules * 10);
}

TEST(CoordinatorSchedules, ChaosLegsAsFixedSchedules) {
    const auto never = [] { return false; };
    const std::vector<double> costs(5, 1.0);  // 5 cells, 3 workers
    // Kill after the append: w1 journals its first cell and dies before
    // the ack; the cell is salvaged, the slot respawns as generation 1.
    {
        SimFleet sim(3, costs);
        sim.spawn_due(never);
        for (std::size_t slot = 0; slot < 3; ++slot) sim.hello(slot);
        ASSERT_FALSE(sim.queue(1).empty());
        const std::size_t salvaged = sim.queue(1).front();
        sim.kill(1, true);
        EXPECT_EQ(sim.coord().state(salvaged), Coordinator::CellState::Done);
        sim.now += 0.25;
        run_to_end(sim);
        sim.check_resolved();
        EXPECT_EQ(sim.coord().generation(1), 1);
    }
    // Coordinator kill after the second ack, then --resume: the orphans
    // journal their running cells, a fresh Coordinator replays the ledger
    // and the journals, and the grid finishes with every cell once.
    {
        SimFleet sim(3, costs);
        sim.spawn_due(never);
        for (std::size_t slot = 0; slot < 3; ++slot) sim.hello(slot);
        sim.ack(0);
        sim.ack(1);
        sim.restart([first = true]() mutable { return std::exchange(first, false); });
        EXPECT_EQ(sim.coord().done_count(), 3u);
        run_to_end(sim);
        sim.check_resolved();
        // Two cells were open, so the resume started two of the three slots.
        EXPECT_EQ(sim.coord().generation(0), 1);
        EXPECT_EQ(sim.coord().generation(1), 1);
        EXPECT_EQ(sim.coord().generation(2), 0);
    }
    // Poison cell: cell 2 kills every worker that starts it; after three
    // distinct incarnations it is quarantined and every other cell is done.
    {
        SimFleet sim(3, costs);
        run_to_end(sim, 2);
        sim.check_resolved();
        EXPECT_EQ(sim.coord().quarantined(), (Cells{2}));
        EXPECT_EQ(sim.coord().crash_count(2), 3u);
        EXPECT_EQ(sim.coord().done_count(), 4u);
    }
}

// ---------------------------------------------------------- fleet resume

TEST(FleetResume, UnparsableLedgerLineFailsNamingTheLedger) {
    // Each ledger event is one write, so a complete line that does not
    // parse is corruption: resuming past it would drop every later event,
    // quarantine convictions included. The resume refuses before any
    // spawn, so no worker binary is needed.
    const std::string dir = "test_fleet_ledger_damage";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string spec_path = dir + "/two.yaml";
    {
        std::ofstream file(spec_path, std::ios::binary);
        file << "campaign:\n  name: ledger_damage\ngrid:\n  solvers: [random, genetic]\n"
                "experiment:\n  total_samples: 4\n";
    }
    const std::string ledger = dir + "/coordinator.jsonl";
    {
        std::ofstream file(ledger, std::ios::binary);
        file << "{\"schema\":\"sdlbench.coordinator_journal.v1\",\"spec_digest\":\""
             << spec_digest(campaign_from_file(spec_path))
             << "\",\"cells_total\":2,\"campaign_path\":\"" << spec_path << "\"}\n"
             << "{\"event\":\"quarantine\",garbage\n"
             << "{\"event\":\"quarantine\",\"cell\":1}\n";
    }
    FleetOptions options;
    options.worker_exe = dir + "/no_such_worker";
    options.resume = true;
    try {
        (void)run_fleet(spec_path, dir, options);
        FAIL() << "a resume past an unparsable ledger line must fail";
    } catch (const support::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(ledger), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(FleetResume, WrongTypedLedgerFieldFailsNamingTheLedgerAndTheKey) {
    // A ledger field of the wrong type is corruption, like a line that
    // does not parse: not a pid of 0, nor an event of unknown kind that
    // the replay skips.
    const std::string dir = "test_fleet_ledger_types";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string spec_path = dir + "/two.yaml";
    {
        std::ofstream file(spec_path, std::ios::binary);
        file << "campaign:\n  name: ledger_types\ngrid:\n  solvers: [random, genetic]\n"
                "experiment:\n  total_samples: 4\n";
    }
    const std::string ledger = dir + "/coordinator.jsonl";
    for (const auto& [event, key] : {
             std::pair{"{\"event\":\"spawn\",\"pid\":\"12\",\"slot\":0,"
                       "\"generation\":0,\"dir\":\"w\"}",
                       "pid"},
             std::pair{"{\"event\":7,\"cell\":1}", "event"},
             std::pair{"{\"event\":\"quarantine\",\"cell\":\"1\"}", "cell"},
         }) {
        {
            std::ofstream file(ledger, std::ios::binary | std::ios::trunc);
            file << "{\"schema\":\"sdlbench.coordinator_journal.v1\",\"spec_digest\":\""
                 << spec_digest(campaign_from_file(spec_path))
                 << "\",\"cells_total\":2,\"campaign_path\":\"" << spec_path << "\"}\n"
                 << event << "\n";
        }
        FleetOptions options;
        options.worker_exe = dir + "/no_such_worker";
        options.resume = true;
        try {
            (void)run_fleet(spec_path, dir, options);
            ADD_FAILURE() << "a resume over " << event << " must fail";
        } catch (const support::ConfigError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(ledger), std::string::npos) << what;
            EXPECT_NE(what.find("line 2"), std::string::npos) << what;
            EXPECT_NE(what.find(std::string(key) + " must be "), std::string::npos) << what;
        }
    }
    std::filesystem::remove_all(dir);
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
