// Tests for support utilities: RNG, units, thread pool, stats,
// tables, CSV, error helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <future>
#include <thread>

#include "support/atomic_io.hpp"
#include "support/common.hpp"
#include "support/csv.hpp"
#include "support/failpoint.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/subprocess.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

using namespace sdl::support;

// ----------------------------------------------------------------- common

TEST(Common, CheckThrowsOnViolation) {
    EXPECT_NO_THROW(check(true, "fine"));
    EXPECT_THROW(check(false, "boom"), LogicError);
}

TEST(Common, NarrowDetectsLoss) {
    EXPECT_EQ(narrow<std::uint8_t>(200), 200);
    EXPECT_THROW((void)narrow<std::uint8_t>(300), LogicError);
    EXPECT_THROW((void)narrow<std::uint8_t>(-1), LogicError);
    EXPECT_EQ(narrow<int>(std::int64_t{123}), 123);
}

// ------------------------------------------------------------------ units

TEST(Units, DurationArithmetic) {
    const Duration d = Duration::hours(8) + Duration::minutes(12);
    EXPECT_DOUBLE_EQ(d.to_seconds(), 29520.0);
    EXPECT_DOUBLE_EQ(d.to_minutes(), 492.0);
    EXPECT_DOUBLE_EQ((d / 2.0).to_minutes(), 246.0);
    EXPECT_DOUBLE_EQ(d / Duration::minutes(1), 492.0);
}

TEST(Units, DurationPrettyMatchesPaperStyle) {
    EXPECT_EQ((Duration::hours(8) + Duration::minutes(12)).pretty(), "8 h 12 m");
    EXPECT_EQ((Duration::minutes(3) + Duration::seconds(48)).pretty(), "3 m 48 s");
    EXPECT_EQ(Duration::seconds(42.65).pretty(), "42.6 s");
    EXPECT_EQ((Duration::hours(5) + Duration::minutes(10)).pretty(), "5 h 10 m");
}

TEST(Units, TimePointDifference) {
    const TimePoint a = TimePoint::from_seconds(100);
    const TimePoint b = a + Duration::seconds(30);
    EXPECT_DOUBLE_EQ((b - a).to_seconds(), 30.0);
    EXPECT_LT(a, b);
}

TEST(Units, VolumeConversions) {
    const Volume v = Volume::milliliters(1.5);
    EXPECT_DOUBLE_EQ(v.to_microliters(), 1500.0);
    EXPECT_EQ((Volume::microliters(40) + Volume::microliters(2)).pretty(), "42.0 uL");
    EXPECT_EQ(Volume::milliliters(2).pretty(), "2.00 mL");
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForEqualSeeds) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(std::uint64_t{6});
        EXPECT_LT(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);  // all faces observed
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(std::int64_t{-3}, std::int64_t{3});
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
    Rng rng(11);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
    Rng rng(17);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, PermutationIsAPermutation) {
    Rng rng(19);
    const auto perm = rng.permutation(50);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, SplitStreamsAreDecorrelated) {
    Rng parent(23);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, SubmitReturnsResults) {
    ThreadPool pool(4);
    auto f1 = pool.submit([] { return 21 * 2; });
    auto f2 = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
    ThreadPool pool(4);
    const auto out = pool.parallel_map(64, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelMapRunsAtMostPoolSizeItemsAtOnce) {
    ThreadPool pool(2);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    const auto out = pool.parallel_map(32, [&](std::size_t i) {
        const int now = in_flight.fetch_add(1) + 1;
        int expected = peak.load();
        while (now > expected && !peak.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        in_flight.fetch_sub(1);
        return i;
    });
    EXPECT_EQ(out.size(), 32u);
    EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, ParallelMapPropagatesWorkerExceptions) {
    // Regression: a throw from any worker task must surface to the
    // caller (not deadlock, not get swallowed).
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_map(100,
                                   [](std::size_t i) -> int {
                                       if (i == 37) throw std::runtime_error("boom");
                                       return 0;
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelMapSafeUnderNesting) {
    // Regression: with every pool worker occupied by an outer task that
    // itself calls parallel_map, the inner calls must complete
    // on the calling threads instead of blocking forever on queued helper
    // drains no free worker can run.
    ThreadPool pool(2);
    auto outer = [&pool] {
        const auto out = pool.parallel_map(8, [](std::size_t i) { return i; });
        std::size_t sum = 0;
        for (const std::size_t v : out) sum += v;
        return sum;
    };
    auto f1 = pool.submit(outer);
    auto f2 = pool.submit(outer);
    EXPECT_EQ(f1.get(), 28u);
    EXPECT_EQ(f2.get(), 28u);
}

TEST(ThreadPool, ParallelMapHandlesEdgeSizes) {
    ThreadPool pool(2);
    EXPECT_TRUE(pool.parallel_map(0, [](std::size_t i) { return i; }).empty());
    const auto out = pool.parallel_map(3, [](std::size_t i) { return i + 1; });
    EXPECT_EQ(out, (std::vector<std::size_t>{1, 2, 3}));
}

// Shutdown stress: the pool destructor's drain handshake is where races
// hide — repeated create/submit/destroy cycles give TSan (the `tsan`
// preset) real interleavings to bite on, and catch lost-wakeup hangs on
// any build by simply not terminating.

TEST(ThreadPool, RepeatedCreateSubmitDestroy) {
    std::atomic<int> executed{0};
    for (int cycle = 0; cycle < 50; ++cycle) {
        ThreadPool pool(4);
        std::vector<std::future<int>> futures;
        futures.reserve(8);
        for (int i = 0; i < 8; ++i) {
            futures.push_back(pool.submit([&executed, i] {
                executed.fetch_add(1, std::memory_order_relaxed);
                return i;
            }));
        }
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
        }
        // Dtor runs here with the queue already drained.
    }
    EXPECT_EQ(executed.load(), 50 * 8);
}

TEST(ThreadPool, DestroyWithUnclaimedWorkRunsEverything) {
    // Submit-then-immediately-destroy: the dtor's contract is to finish
    // queued work, not drop it, and every future must become ready.
    for (int cycle = 0; cycle < 50; ++cycle) {
        std::atomic<int> executed{0};
        std::vector<std::future<void>> futures;
        {
            ThreadPool pool(2);
            futures.reserve(16);
            for (int i = 0; i < 16; ++i) {
                futures.push_back(pool.submit(
                    [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }));
            }
        }
        for (auto& f : futures) f.get();
        EXPECT_EQ(executed.load(), 16);
    }
}

// ------------------------------------------------------------------ stats

TEST(Stats, OnlineMatchesBatch) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
    OnlineStats online;
    for (double x : xs) online.add(x);
    EXPECT_DOUBLE_EQ(online.mean(), mean(xs));
    EXPECT_NEAR(online.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(online.min(), 1.0);
    EXPECT_DOUBLE_EQ(online.max(), 8.0);
}

TEST(Stats, PercentileInterpolates) {
    const std::vector<double> xs{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumns) {
    TextTable t({"Metric", "Value"});
    t.set_alignment({TextTable::Align::Left, TextTable::Align::Right});
    t.add_row({"Time without humans", "8 h 12 m"});
    t.add_row({"Total colors mixed", "128"});
    const std::string out = t.str();
    EXPECT_NE(out.find("Metric"), std::string::npos);
    EXPECT_NE(out.find("8 h 12 m"), std::string::npos);
    // Header rule present.
    EXPECT_NE(out.find("---"), std::string::npos);
    // Right-aligned numeric column: "128" ends its line.
    EXPECT_NE(out.find("     128\n"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only one"}), LogicError);
}

TEST(Table, FmtDouble) {
    EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
    EXPECT_EQ(fmt_double(2.0, 0), "2");
}

// -------------------------------------------------------------------- csv

TEST(Csv, WritesQuotedCells) {
    CsvWriter csv({"name", "value"});
    csv.add_row(std::vector<std::string>{"plain", "1"});
    csv.add_row(std::vector<std::string>{"with,comma", "quote\"inside"});
    const std::string& out = csv.str();
    EXPECT_NE(out.find("name,value\n"), std::string::npos);
    EXPECT_NE(out.find("\"with,comma\",\"quote\"\"inside\"\n"), std::string::npos);
    EXPECT_EQ(csv.rows(), 2u);
}

TEST(Csv, NumericRows) {
    CsvWriter csv({"x", "y"});
    csv.add_row(std::vector<double>{1.5, 2.0});
    EXPECT_NE(csv.str().find("1.5,2\n"), std::string::npos);
}

TEST(Csv, NumericRowsRoundTrip) {
    // Shortest-round-trip cells: parsing the text back gives the exact
    // double, and integral values stay compact.
    const double third = 1.0 / 3.0;
    const std::string text = fmt_roundtrip(third);
    EXPECT_EQ(std::stod(text), third);
    EXPECT_EQ(fmt_roundtrip(2.0), "2");
    EXPECT_EQ(fmt_roundtrip(1.5), "1.5");
    EXPECT_EQ(fmt_roundtrip(-0.125), "-0.125");
    // A value "%.6g" used to truncate survives the new format.
    const double precise = 123.456789012345;
    EXPECT_EQ(std::stod(fmt_roundtrip(precise)), precise);
}

// -------------------------------------------------------------- atomic io

namespace {

std::string slurp(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

}  // namespace

TEST(AtomicIo, WritesAndOverwritesWholeFiles) {
    const std::string dir = "test_support_atomic_io";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/doc.txt";
    atomic_write(path, "first\n");
    EXPECT_EQ(slurp(path), "first\n");
    atomic_write(path, "second version\n");
    EXPECT_EQ(slurp(path), "second version\n");
    // No temp files left behind.
    std::size_t entries = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(dir);
}

TEST(AtomicIo, AtomicWriteToUnwritablePathThrows) {
    EXPECT_THROW(atomic_write("no_such_dir_xyz/doc.txt", "x"), Error);
}

TEST(AtomicIo, AppendWriterAppendsOneLinePerRecord) {
    const std::string dir = "test_support_append";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    {
        AppendWriter writer(path);
        writer.append_line("{\"a\":1}");
        writer.append_line("{\"b\":2}");
    }
    {
        // Reopening appends after existing content (O_APPEND semantics).
        AppendWriter writer(path);
        writer.append_line("{\"c\":3}");
    }
    EXPECT_EQ(slurp(path), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
    AppendWriter writer(path);
    EXPECT_THROW(writer.append_line("two\nlines"), LogicError);
    std::filesystem::remove_all(dir);
}

TEST(AtomicIo, SplitCompleteLinesKeepsOnlyTerminatedRecords) {
    using Lines = std::vector<std::string_view>;
    CompleteLines split = split_complete_lines("");
    EXPECT_TRUE(split.lines.empty());
    EXPECT_EQ(split.tail, 0u);
    // No newline at all: everything is remainder (a torn header).
    split = split_complete_lines("{\"a\":1");
    EXPECT_TRUE(split.lines.empty());
    EXPECT_EQ(split.tail, 0u);
    // Empty lines are reported; each caller decides what they mean.
    split = split_complete_lines("h\n\nr1\n");
    EXPECT_EQ(split.lines, (Lines{"h", "", "r1"}));
    EXPECT_EQ(split.tail, 6u);
    // The unterminated remainder starts right after the last newline.
    const std::string_view bytes = "h\nr1\nr2-torn";
    split = split_complete_lines(bytes);
    EXPECT_EQ(split.lines, (Lines{"h", "r1"}));
    EXPECT_EQ(bytes.substr(split.tail), "r2-torn");
}

TEST(Csv, RowWidthMismatchThrows) {
    CsvWriter csv({"a", "b"});
    EXPECT_THROW(csv.add_row(std::vector<std::string>{"x"}), LogicError);
}

// -------------------------------------------------------------- failpoint

namespace {

/// Every failpoint test disarms on both edges so a failed EXPECT cannot
/// leak an armed schedule into later tests in this process.
struct FailpointGuard {
    FailpointGuard() { sdl::support::failpoint::disarm(); }
    ~FailpointGuard() { sdl::support::failpoint::disarm(); }
};

}  // namespace

TEST(Failpoint, DisarmedByDefaultAndZeroCost) {
    FailpointGuard guard;
    EXPECT_FALSE(failpoint::armed());
    EXPECT_EQ(failpoint::evaluate("atomic_io.rename").action,
              failpoint::Action::None);
    EXPECT_NO_THROW(failpoint::maybe_fail("atomic_io.rename", "io"));
}

TEST(Failpoint, ParsesTheFullGrammar) {
    const std::vector<failpoint::Entry> entries = failpoint::parse(
        "worker.pre_ack_kill=kill@2#1,atomic_io.rename=err@3,"
        "journal.append_short_write=err(7),worker.cell_start[5]=kill,"
        "subprocess.spawn=delay(120)");
    ASSERT_EQ(entries.size(), 5u);
    EXPECT_EQ(entries[0].site, "worker.pre_ack_kill");
    EXPECT_EQ(entries[0].action, failpoint::Action::Kill);
    EXPECT_EQ(entries[0].nth, 2u);
    EXPECT_EQ(entries[0].count, 1u);
    EXPECT_EQ(entries[1].action, failpoint::Action::Err);
    EXPECT_EQ(entries[1].nth, 3u);
    EXPECT_EQ(entries[1].count, 0u);  // unlimited
    EXPECT_EQ(entries[2].param, 7);
    ASSERT_TRUE(entries[3].filter.has_value());
    EXPECT_EQ(*entries[3].filter, 5);
    EXPECT_EQ(entries[4].action, failpoint::Action::Delay);
    EXPECT_EQ(entries[4].param, 120);
    // Empty spec is valid (arming it is a no-op).
    EXPECT_TRUE(failpoint::parse("").empty());
}

TEST(Failpoint, RejectsMalformedSpecsLoudly) {
    for (const char* bad :
         {"norhs", "site=", "site=explode", "site=err:2.0", "site=err:0",
          "site=err@0", "site[x]=err", "site=err(abc)", "seed=x", "=err",
          "site=err:0.5@", "site=err,,site2=err", "site=err:0.5", "seed=7"}) {
        EXPECT_THROW((void)failpoint::parse(bad), ConfigError) << bad;
    }
}

TEST(Failpoint, NthCountAndFilterScheduleHits) {
    FailpointGuard guard;
    // Eligible from the 2nd hit, at most 2 fires.
    failpoint::arm("x.y=err@2#2");
    EXPECT_TRUE(failpoint::armed());
    EXPECT_EQ(failpoint::evaluate("x.y").action, failpoint::Action::None);
    EXPECT_EQ(failpoint::evaluate("x.y").action, failpoint::Action::Err);
    EXPECT_EQ(failpoint::evaluate("x.y").action, failpoint::Action::Err);
    EXPECT_EQ(failpoint::evaluate("x.y").action, failpoint::Action::None);
    // Other sites are untouched.
    EXPECT_EQ(failpoint::evaluate("x.z").action, failpoint::Action::None);
    // Filtered entries only see matching hits — and only those advance
    // the hit counter.
    failpoint::arm("cell.start[5]=err@2");
    EXPECT_EQ(failpoint::evaluate("cell.start", 4).action,
              failpoint::Action::None);
    EXPECT_EQ(failpoint::evaluate("cell.start", 5).action,
              failpoint::Action::None);  // 1st matching hit, nth=2
    EXPECT_EQ(failpoint::evaluate("cell.start", 4).action,
              failpoint::Action::None);
    EXPECT_EQ(failpoint::evaluate("cell.start", 5).action,
              failpoint::Action::Err);
}

TEST(Failpoint, MaybeFailThrowsTheNamedCategory) {
    FailpointGuard guard;
    failpoint::arm("boom.site=err#1");
    try {
        failpoint::maybe_fail("boom.site", "io");
        FAIL() << "armed err failpoint did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.category(), "io");
        EXPECT_NE(std::string(e.what()).find("boom.site"), std::string::npos);
    }
    // #1 exhausted the entry: the site is quiet again.
    EXPECT_NO_THROW(failpoint::maybe_fail("boom.site", "io"));
}

TEST(Failpoint, AtomicWriteInjectionLeavesTheOldFileIntact) {
    FailpointGuard guard;
    const std::string dir = "test_support_failpoint_atomic";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/doc.txt";
    atomic_write(path, "original\n");
    for (const char* site : {"atomic_io.rename=err#1", "atomic_io.fsync=err#1"}) {
        failpoint::arm(site);
        EXPECT_THROW(atomic_write(path, "clobber\n"), Error) << site;
        EXPECT_EQ(slurp(path), "original\n") << site;
        // The failed attempt's temp file is cleaned up, not leaked.
        std::size_t entries = 0;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            (void)entry;
            ++entries;
        }
        EXPECT_EQ(entries, 1u) << site;
        // The injection budget (#1) is spent: the retry goes through.
        atomic_write(path, "updated\n");
        EXPECT_EQ(slurp(path), "updated\n") << site;
        atomic_write(path, "original\n");
    }
    std::filesystem::remove_all(dir);
}

namespace {
void ignore_usr1(int) {}
}  // namespace

TEST(Subprocess, PollReadableSurvivesEintr) {
    // Regression: poll_readable used to report EINTR as a timeout, so a
    // stray signal made the fleet's coordinator loop think every worker
    // went silent. Now it retries with the remaining budget.
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = ignore_usr1;
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    int fds[2] = {-1, -1};
    ASSERT_EQ(pipe(fds), 0);
    const pthread_t poller = pthread_self();
    std::thread writer([&] {
        // A burst of signals lands mid-poll, then the byte arrives; a
        // poll that treats EINTR as a timeout never sees it.
        for (int i = 0; i < 5; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            pthread_kill(poller, SIGUSR1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_EQ(write(fds[1], "x", 1), 1);
    });
    const std::vector<bool> readable =
        poll_readable(std::vector<int>{fds[0]}, 2000);
    writer.join();
    ASSERT_EQ(readable.size(), 1u);
    EXPECT_TRUE(readable[0]);
    (void)sigaction(SIGUSR1, &old, nullptr);
    close(fds[0]);
    close(fds[1]);
}
