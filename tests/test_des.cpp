// Tests for the discrete-event simulation kernel and simulated resources.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "support/common.hpp"

using namespace sdl::des;
using sdl::support::Duration;
using sdl::support::TimePoint;
using sdl::support::Volume;

TEST(Simulation, EventsRunInTimeOrder) {
    Simulation sim;
    std::vector<int> order;
    sim.schedule_in(Duration::seconds(30), [&] { order.push_back(3); });
    sim.schedule_in(Duration::seconds(10), [&] { order.push_back(1); });
    sim.schedule_in(Duration::seconds(20), [&] { order.push_back(2); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 30.0);
    EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulation, SameTimeEventsRunInSchedulingOrder) {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_in(Duration::seconds(5), [&order, i] { order.push_back(i); });
    }
    sim.run_all();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesClock) {
    Simulation sim;
    double completion_time = -1.0;
    sim.schedule_in(Duration::seconds(10), [&] {
        sim.schedule_in(Duration::seconds(5), [&] {
            completion_time = sim.now().to_seconds();
        });
    });
    sim.run_all();
    EXPECT_DOUBLE_EQ(completion_time, 15.0);
}

TEST(Simulation, SchedulingInThePastThrows) {
    Simulation sim;
    sim.schedule_in(Duration::seconds(10), [] {});
    sim.run_all();
    EXPECT_THROW(sim.schedule_at(TimePoint::from_seconds(5), [] {}),
                 sdl::support::LogicError);
    EXPECT_THROW(sim.schedule_in(Duration::seconds(-1), [] {}), sdl::support::LogicError);
}

TEST(Simulation, RunUntilTimeLeavesLaterEventsPending) {
    Simulation sim;
    int fired = 0;
    sim.schedule_in(Duration::seconds(10), [&] { ++fired; });
    sim.schedule_in(Duration::seconds(30), [&] { ++fired; });
    sim.run_until_time(TimePoint::from_seconds(20));
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 20.0);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_all();
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilPredicate) {
    Simulation sim;
    bool done = false;
    sim.schedule_in(Duration::seconds(100), [&] { done = true; });
    sim.schedule_in(Duration::seconds(200), [] {});
    EXPECT_TRUE(sim.run_until([&] { return done; }));
    EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 100.0);
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, RunUntilReportsFailureWhenQueueDrains) {
    Simulation sim;
    sim.schedule_in(Duration::seconds(1), [] {});
    EXPECT_FALSE(sim.run_until([] { return false; }));
}

TEST(Simulation, DeterministicReplay) {
    auto run = [] {
        Simulation sim;
        std::string trace;
        // A little self-rescheduling process network.
        std::function<void(int)> proc = [&](int depth) {
            trace += std::to_string(depth) + ";";
            if (depth < 5) {
                sim.schedule_in(Duration::seconds(1.5), [&proc, depth] { proc(depth + 1); });
                sim.schedule_in(Duration::seconds(1.5), [&trace] { trace += "x;"; });
            }
        };
        sim.schedule_in(Duration::zero(), [&proc] { proc(0); });
        sim.run_all();
        return trace;
    };
    EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------- resource

TEST(Resource, GrantsImmediatelyWhenFree) {
    Simulation sim;
    Resource arm(sim, 1, "pf400");
    bool granted = false;
    arm.acquire([&] { granted = true; });
    EXPECT_FALSE(granted);  // grant is deferred through the event queue
    sim.run_all();
    EXPECT_TRUE(granted);
    EXPECT_EQ(arm.in_use(), 1u);
}

TEST(Resource, QueuesWaitersFifo) {
    Simulation sim;
    Resource deck(sim, 1, "ot2");
    std::vector<int> grant_order;
    deck.acquire([&] { grant_order.push_back(1); });
    deck.acquire([&] { grant_order.push_back(2); });
    deck.acquire([&] { grant_order.push_back(3); });
    sim.run_all();
    EXPECT_EQ(grant_order, (std::vector<int>{1}));
    EXPECT_EQ(deck.waiting(), 2u);

    deck.release();
    sim.run_all();
    deck.release();
    sim.run_all();
    EXPECT_EQ(grant_order, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, CapacityTwoAllowsTwoConcurrent) {
    Simulation sim;
    Resource decks(sim, 2, "ot2_pair");
    int active = 0;
    decks.acquire([&] { ++active; });
    decks.acquire([&] { ++active; });
    decks.acquire([&] { ++active; });
    sim.run_all();
    EXPECT_EQ(active, 2);
    EXPECT_EQ(decks.waiting(), 1u);
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
    Simulation sim;
    Resource r(sim, 1);
    EXPECT_THROW(r.release(), sdl::support::LogicError);
}

// ------------------------------------------------------------------ store

TEST(Store, WithdrawDepositCycle) {
    Store reservoir(Volume::milliliters(20), Volume::milliliters(20), "cyan");
    EXPECT_TRUE(reservoir.try_withdraw(Volume::milliliters(5)));
    EXPECT_DOUBLE_EQ(reservoir.level().to_milliliters(), 15.0);
    EXPECT_FALSE(reservoir.try_withdraw(Volume::milliliters(16)));
    EXPECT_DOUBLE_EQ(reservoir.level().to_milliliters(), 15.0);  // unchanged
    const Volume accepted = reservoir.deposit(Volume::milliliters(10));
    EXPECT_DOUBLE_EQ(accepted.to_milliliters(), 5.0);  // clamped at capacity
    EXPECT_DOUBLE_EQ(reservoir.fill_fraction(), 1.0);
}

TEST(Store, DrainEmpties) {
    Store s(Volume::milliliters(10), Volume::milliliters(7));
    s.drain();
    EXPECT_DOUBLE_EQ(s.level().to_microliters(), 0.0);
    EXPECT_FALSE(s.try_withdraw(Volume::microliters(1)));
}

TEST(Store, InvalidConstructionThrows) {
    EXPECT_THROW(Store(Volume::milliliters(1), Volume::milliliters(2)),
                 sdl::support::LogicError);
}

// Property: interleavings of acquire/release maintain in_use <= capacity.
class ResourceCapacity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResourceCapacity, NeverExceedsCapacity) {
    const std::size_t cap = GetParam();
    Simulation sim;
    Resource r(sim, cap);
    int concurrent = 0;
    int peak = 0;
    for (int i = 0; i < 20; ++i) {
        r.acquire([&] {
            ++concurrent;
            peak = std::max(peak, concurrent);
            sim.schedule_in(Duration::seconds(3), [&] {
                --concurrent;
                r.release();
            });
        });
    }
    sim.run_all();
    EXPECT_LE(static_cast<std::size_t>(peak), cap);
    EXPECT_EQ(concurrent, 0);
    EXPECT_EQ(r.waiting(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ResourceCapacity, ::testing::Values(1u, 2u, 3u, 8u));
