#include "fault/plan.hpp"

#include <algorithm>
#include <memory>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace tsx::fault {

FaultPlan build_plan(const FaultConfig& config, std::uint64_t seed,
                     int num_executors, int num_datanodes) {
  TSX_CHECK(num_executors > 0, "fault plan needs at least one executor");
  TSX_CHECK(num_datanodes > 0, "fault plan needs at least one datanode");
  FaultPlan plan;

  // Every draw comes from one dedicated stream, keyed off the run seed and
  // the config salt; the workload's own streams are untouched, so enabling
  // faults never perturbs the generated data.
  std::uint64_t mix = seed ^ config.salt ^ 0xfa0175ede7ec7edULL;
  Rng rng(splitmix64(mix));

  for (int c = 0; c < config.executor_crashes; ++c) {
    PlannedCrash crash;
    crash.at = Duration::seconds(
        config.crash_offset_s + rng.uniform() * config.crash_window_s);
    crash.executor = static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(num_executors)));
    plan.crashes.push_back(crash);
  }
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const PlannedCrash& a, const PlannedCrash& b) {
              return a.at < b.at;
            });

  if (config.uce_per_gib > 0.0) {
    // Pre-draw a generous horizon of inter-arrival gaps; the controller
    // consumes them in order as write churn accumulates. 1024 events is
    // far beyond any plausible run.
    double cum = 0.0;
    for (int i = 0; i < 1024; ++i) {
      cum += rng.exponential(config.uce_per_gib);
      plan.uce_thresholds_gib.push_back(cum);
    }
  }

  if (config.datanode_crashes > 0) {
    // Victims without replacement over the datanode grid; drawn last so the
    // executor-crash and UCE streams above stay exactly as they were
    // without storage faults.
    std::vector<int> pool;
    pool.reserve(static_cast<std::size_t>(num_datanodes));
    for (int n = 0; n < num_datanodes; ++n) pool.push_back(n);
    const int count = std::min(config.datanode_crashes, num_datanodes);
    for (int c = 0; c < count; ++c) {
      PlannedDatanodeCrash crash;
      crash.at = Duration::seconds(config.datanode_crash_at_s +
                                   rng.uniform() *
                                       config.datanode_crash_window_s);
      const auto pick = static_cast<std::size_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(pool.size())));
      crash.node = pool[pick];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      plan.datanode_crashes.push_back(crash);
    }
    std::sort(plan.datanode_crashes.begin(), plan.datanode_crashes.end(),
              [](const PlannedDatanodeCrash& a,
                 const PlannedDatanodeCrash& b) { return a.at < b.at; });
  }
  return plan;
}

void FaultClock::arm(Duration at, std::function<void()> fn) {
  sim_.schedule_at(std::max(at, sim_.now()), std::move(fn));
}

namespace {

/// One tick of a periodic clock. Each pending event holds its own copy and
/// schedules the next one, so nothing holds itself: a tick that was never
/// scheduled again is freed with its event.
struct PeriodicTick {
  sim::Simulator* sim;
  Duration period;
  std::shared_ptr<const std::function<bool()>> fn;

  void operator()() const {
    if ((*fn)()) sim->schedule_in(period, *this);
  }
};

}  // namespace

void FaultClock::arm_periodic(Duration period, std::function<bool()> fn) {
  TSX_CHECK(period.sec() > 0.0, "periodic fault clock needs a period");
  sim_.schedule_in(
      period,
      PeriodicTick{&sim_, period,
                   std::make_shared<const std::function<bool()>>(
                       std::move(fn))});
}

}  // namespace tsx::fault
