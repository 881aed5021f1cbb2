// Unit and property tests for the discrete-event kernel: event ordering,
// cancellation, processor-sharing fluid channels (water-filling invariants)
// and the core pool.
#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "sim/core_pool.hpp"
#include "sim/fluid_channel.hpp"
#include "sim/simulator.hpp"

namespace tsx::sim {
namespace {

// --- simulator ---------------------------------------------------------------

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Duration::seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(Duration::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(Duration::seconds(2), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Duration::seconds(3));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(Duration::seconds(1), [&, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_in(Duration::seconds(1), recurse);
  };
  sim.schedule_in(Duration::seconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), Duration::seconds(10));
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id =
      sim.schedule_at(Duration::seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator sim;
  sim.cancel(99999);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Duration::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(Duration::seconds(5), [&] { order.push_back(5); });
  sim.run_until(Duration::seconds(2));
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_EQ(sim.now(), Duration::seconds(2));
  EXPECT_TRUE(sim.has_pending());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Simulator, RejectsPastAndInfinite) {
  Simulator sim;
  sim.schedule_at(Duration::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Duration::seconds(1), [] {}), tsx::Error);
  EXPECT_THROW(sim.schedule_at(Duration::infinite(), [] {}), tsx::Error);
  EXPECT_THROW(sim.schedule_in(Duration::seconds(-1), [] {}), tsx::Error);
}

// --- fluid channel ---------------------------------------------------------------

TEST(FluidChannel, SingleFlowAtCap) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  Duration done = Duration::zero();
  ch.start_flow(Bytes::of(2e9), Bandwidth::gb_per_sec(2),
                [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done.sec(), 1.0, 1e-9);  // capped at 2 GB/s, not 10
}

TEST(FluidChannel, EqualShareWhenUncapped) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  std::vector<double> finish(2, 0.0);
  for (int i = 0; i < 2; ++i)
    ch.start_flow(Bytes::of(5e9), Bandwidth::gb_per_sec(100),
                  [&, i] { finish[static_cast<std::size_t>(i)] = sim.now().sec(); });
  sim.run();
  // Both flows share 10 GB/s equally: 5 GB at 5 GB/s each.
  EXPECT_NEAR(finish[0], 1.0, 1e-9);
  EXPECT_NEAR(finish[1], 1.0, 1e-9);
}

TEST(FluidChannel, WaterFillingRedistributesSlack) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  double slow_done = 0.0, fast_done = 0.0;
  // Slow flow capped at 1 GB/s; fast flow can use the remaining 9.
  ch.start_flow(Bytes::of(1e9), Bandwidth::gb_per_sec(1),
                [&] { slow_done = sim.now().sec(); });
  ch.start_flow(Bytes::of(9e9), Bandwidth::gb_per_sec(100),
                [&] { fast_done = sim.now().sec(); });
  sim.run();
  EXPECT_NEAR(slow_done, 1.0, 1e-9);
  EXPECT_NEAR(fast_done, 1.0, 1e-9);
}

TEST(FluidChannel, CompletionFreesShareForRemaining) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  double small_done = 0.0, big_done = 0.0;
  ch.start_flow(Bytes::of(1e9), Bandwidth::gb_per_sec(100),
                [&] { small_done = sim.now().sec(); });
  ch.start_flow(Bytes::of(2e9), Bandwidth::gb_per_sec(100),
                [&] { big_done = sim.now().sec(); });
  sim.run();
  // Phase 1: both at 5 GB/s. Small finishes at 0.2 s; big has 1 GB left and
  // then runs at 10 GB/s -> finishes at 0.3 s.
  EXPECT_NEAR(small_done, 0.2, 1e-9);
  EXPECT_NEAR(big_done, 0.3, 1e-9);
}

TEST(FluidChannel, ZeroVolumeCompletesImmediately) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(1));
  bool done = false;
  ch.start_flow(Bytes::zero(), Bandwidth::gb_per_sec(1), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), Duration::zero());
}

TEST(FluidChannel, CapacityChangeMidFlight) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  double done = 0.0;
  ch.start_flow(Bytes::of(10e9), Bandwidth::gb_per_sec(100),
                [&] { done = sim.now().sec(); });
  sim.schedule_at(Duration::seconds(0.5),
                  [&] { ch.set_capacity(Bandwidth::gb_per_sec(5)); });
  sim.run();
  // 5 GB in the first 0.5 s, remaining 5 GB at 5 GB/s -> 1.5 s total.
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST(FluidChannel, AbortDropsWithoutCallback) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  bool aborted_fired = false;
  double other_done = 0.0;
  const FlowId id = ch.start_flow(Bytes::of(5e9), Bandwidth::gb_per_sec(100),
                                  [&] { aborted_fired = true; });
  ch.start_flow(Bytes::of(5e9), Bandwidth::gb_per_sec(100),
                [&] { other_done = sim.now().sec(); });
  sim.schedule_at(Duration::seconds(0.1), [&] { ch.abort_flow(id); });
  sim.run();
  EXPECT_FALSE(aborted_fired);
  // Other flow: 0.5 GB in the first 0.1 s (shared), then full 10 GB/s.
  EXPECT_NEAR(other_done, 0.1 + 4.5 / 10.0, 1e-9);
}

TEST(FluidChannel, UtilizationTracksAllocation) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(10));
  EXPECT_DOUBLE_EQ(ch.utilization(), 0.0);
  ch.start_flow(Bytes::of(1e9), Bandwidth::gb_per_sec(2), [] {});
  EXPECT_NEAR(ch.utilization(), 0.2, 1e-12);
  ch.start_flow(Bytes::of(1e9), Bandwidth::gb_per_sec(100), [] {});
  EXPECT_NEAR(ch.utilization(), 1.0, 1e-12);  // saturated by the second flow
  sim.run();
  EXPECT_DOUBLE_EQ(ch.utilization(), 0.0);
}

TEST(FluidChannel, DrainedTotalConservesBytes) {
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(3));
  for (int i = 0; i < 7; ++i)
    ch.start_flow(Bytes::of(1e8 * (i + 1)), Bandwidth::gb_per_sec(1), [] {});
  sim.run();
  EXPECT_NEAR(ch.drained_total().b(), 2.8e9, 1.0);
  EXPECT_EQ(ch.active_flows(), 0u);
}

/// Property sweep: N identical flows through a channel must all finish at
/// volume * N / capacity (perfect processor sharing), for any N.
class FluidChannelSharing : public ::testing::TestWithParam<int> {};

TEST_P(FluidChannelSharing, NFlowsShareFairly) {
  const int n = GetParam();
  Simulator sim;
  FluidChannel ch(sim, "ch", Bandwidth::gb_per_sec(8));
  std::vector<double> finish;
  for (int i = 0; i < n; ++i)
    ch.start_flow(Bytes::of(1e9), Bandwidth::gb_per_sec(100),
                  [&] { finish.push_back(sim.now().sec()); });
  sim.run();
  ASSERT_EQ(finish.size(), static_cast<std::size_t>(n));
  const double expected = static_cast<double>(n) / 8.0;
  for (const double f : finish) EXPECT_NEAR(f, expected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sharing, FluidChannelSharing,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40, 100));

// --- core pool -----------------------------------------------------------------

TEST(CorePool, LimitsConcurrency) {
  Simulator sim;
  CorePool pool(sim, "p", 2);
  int running = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    pool.acquire([&] {
      peak = std::max(peak, ++running);
      sim.schedule_in(Duration::seconds(1), [&] {
        --running;
        pool.release();
      });
    });
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  // 6 unit tasks on 2 cores: makespan 3 s.
  EXPECT_EQ(sim.now(), Duration::seconds(3));
}

TEST(CorePool, FifoHandoff) {
  Simulator sim;
  CorePool pool(sim, "p", 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    pool.acquire([&, i] {
      order.push_back(i);
      sim.schedule_in(Duration::seconds(1), [&] { pool.release(); });
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CorePool, BusyCoreSecondsIntegrate) {
  Simulator sim;
  CorePool pool(sim, "p", 4);
  for (int i = 0; i < 4; ++i) {
    pool.acquire([&] {
      sim.schedule_in(Duration::seconds(2), [&] { pool.release(); });
    });
  }
  sim.run();
  EXPECT_NEAR(pool.busy_core_seconds(), 8.0, 1e-9);
  EXPECT_EQ(pool.busy_cores(), 0u);
}

TEST(CorePool, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  CorePool pool(sim, "p", 1);
  EXPECT_THROW(pool.release(), tsx::Error);
}

}  // namespace
}  // namespace tsx::sim
