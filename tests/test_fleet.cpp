// Tests for the fleet building blocks: the line protocol, the
// lease-table scheduler (grant/complete/revoke/adaptive sizing and the
// loud duplicate guard), cost-model cell ordering, the SDLBENCH_WORKERS
// parser, and the subprocess/pipe helpers (POSIX only).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>

#include <csignal>
#endif

#include "campaign/cost_model.hpp"
#include "campaign/fleet.hpp"
#include "campaign/lease.hpp"
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
