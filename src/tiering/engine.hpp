// The tiering engine: hooks + tracker + policy + cost model, wired to one
// SparkContext.
//
// The engine implements spark::TieringHooks, so once attached (start()) the
// block manager and shuffle store stream region lifecycle and demand
// accesses into the HotnessTracker, and executors route each stream class's
// traffic by the tracker's per-tier hotness weights. Every `epoch_ms` of
// virtual time the engine ages the tracker, snapshots it into a PlanContext
// and executes the policy's plan through the MigrationCostModel. A region's
// placement flips at migration *launch* — new traffic immediately targets
// the destination while the copy drains in the background, contending with
// foreground flows — and the `migrating` flag suppresses re-planning the
// region until the copy lands.
//
// Under the `static` policy the engine plans nothing and expresses no
// traffic-split opinion; runs are bit-identical to a run without an engine.
#pragma once

#include <memory>
#include <vector>

#include "spark/context.hpp"
#include "spark/tiering_hooks.hpp"
#include "tiering/cost_model.hpp"
#include "tiering/hotness.hpp"
#include "tiering/options.hpp"
#include "tiering/policy.hpp"

namespace tsx::tiering {

class Engine final : public spark::TieringHooks {
 public:
  Engine(spark::SparkContext& sc, TieringConfig config);

  /// Detaches the hooks if still attached, so the SparkContext can safely
  /// outlive the engine (its teardown drops every tracked region).
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Attaches the hooks to the SparkContext and, unless the policy is
  /// static, schedules the recurring epoch tick. Call once, before the
  /// workload runs. The engine must outlive the SparkContext's last task.
  void start();

  // spark::TieringHooks
  void on_region_put(spark::StreamClass cls, spark::RegionId id,
                     Bytes bytes) override;
  void on_region_access(spark::StreamClass cls, spark::RegionId id,
                        Bytes bytes, mem::AccessKind kind) override;
  void on_region_drop(spark::StreamClass cls, spark::RegionId id) override;
  std::vector<spark::TierShare> traffic_split(
      spark::StreamClass cls) const override;
  double migration_busy_seconds() const override;

  const TieringConfig& config() const { return config_; }
  const TieringStats& stats() const { return stats_; }
  const HotnessTracker& tracker() const { return tracker_; }

  /// Attaches the observability recorder: every migration copy becomes a
  /// span (category "tiering.promote" / "tiering.demote", args from/to/
  /// bytes), the only record of a migration. Null (the default) changes
  /// nothing.
  void set_obs(obs::Recorder* recorder) { obs_ = recorder; }

  /// Promotion target: local DRAM of the bound socket.
  mem::TierId fast_tier() const { return mem::TierId::kTier0; }
  /// Demotion target: the run's bound capacity tier (Tier 2 when the run
  /// is already DRAM-bound, so demotions always leave the fast tier).
  mem::TierId slow_tier() const;

 private:
  /// The epoch boundary: age hotness, plan, migrate.
  void tick();
  void launch_move(const Move& move);

  spark::SparkContext& sc_;
  TieringConfig config_;
  HotnessTracker tracker_;
  std::unique_ptr<Policy> policy_;
  MigrationCostModel cost_model_;
  TieringStats stats_;
  bool started_ = false;
  obs::Recorder* obs_ = nullptr;

  // Migration-busy integrator for the obs plane's stall estimate: total
  // virtual seconds during which >= 1 copy was in flight.
  int migrations_in_flight_ = 0;
  Duration busy_since_ = Duration::zero();
  double busy_accum_ = 0.0;
};

}  // namespace tsx::tiering
