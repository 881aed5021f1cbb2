// The fault controller: injection plan + recovery bookkeeping, wired to one
// SparkContext.
//
// The controller implements spark::FaultHooks, so once attached (start())
// the executors register in-flight tasks and consult it for straggle draws
// and tier reroutes, the DAG scheduler reports retries and speculation,
// and the shuffle store reports lineage recomputations. The
// controller itself owns the injection side: it schedules the FaultPlan's
// crashes, the tier-offline event, the bandwidth collapse, and the churn
// poll that turns NVDIMM write wear into uncorrectable errors.
//
// Determinism contract: with the same RunConfig (seed, salt, knobs) the
// injected schedule, the recovery actions and the final metrics are
// bit-identical across runs and platforms. With `enabled = false` the
// controller is never constructed and the engine runs the pre-fault code
// path bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dfs/repair.hpp"
#include "fault/options.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"
#include "spark/context.hpp"
#include "spark/fault_hooks.hpp"

namespace tsx::fault {

class Controller final : public spark::FaultHooks {
 public:
  Controller(spark::SparkContext& sc, FaultConfig config);

  /// Detaches the hooks if still attached, so the SparkContext can safely
  /// outlive the controller.
  ~Controller() override;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Attaches the hooks to the SparkContext and schedules every planned
  /// injection. Call once, before the workload runs.
  void start();

  // spark::FaultHooks
  mem::TierId effective_tier(mem::TierId tier, Bytes volume) override;
  bool tier_online(mem::TierId tier) const override;
  double straggle_factor(int stage_id, std::size_t partition,
                         int attempt) override;
  void on_task_failure(int stage_id, std::size_t partition,
                       int attempt) override;
  void on_retry(int stage_id, std::size_t partition,
                Duration backoff) override;
  void on_speculative_launch(int stage_id, std::size_t partition,
                             int attempt) override;
  void on_speculative_win(int stage_id, std::size_t partition,
                          int attempt) override;
  void on_recomputed_map_task(int shuffle_id, std::size_t map_part) override;

  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }

  /// Attaches the observability recorder: injections and recovery actions
  /// become "fault.inject" / "fault.recover" instants. Null (the default)
  /// changes nothing.
  void set_obs(obs::Recorder* recorder) { obs_ = recorder; }

 private:
  /// Counts one fault event into the recorder's `fault_events` counter and,
  /// when the recorder's filter wants the category, emits it as an instant
  /// named `message()`. Without a recorder the message is never rendered.
  void note(const char* category, const std::function<std::string()>& message);

  void inject_crash(int executor);
  void take_tier_offline(mem::TierId tier);
  void collapse_bandwidth();
  void crash_datanode(int node);
  void take_rack_offline(int rack);
  void recover_rack(int rack);
  /// Plans and drives one background repair wave: the schedule's tasks run
  /// as sequential, uncapped flows through the shared storage channel,
  /// each completion re-creating its chunk. Itemized in DfsStats and
  /// spanned as `dfs.repair`.
  struct RepairWave {
    std::vector<dfs::RepairTask> tasks;
    std::size_t next = 0;
    Duration task_start;
    Duration wave_start;
    obs::SpanId span = 0;
  };
  void run_repair_wave();
  void launch_repair(const std::shared_ptr<RepairWave>& wave);
  void finish_repair_wave(const std::shared_ptr<RepairWave>& wave);
  /// Churn poll: fires queued UCEs as NVM write volume crosses the plan's
  /// thresholds. Returns false once the threshold list is exhausted.
  bool poll_uce();
  /// First online tier of the dead tier's fallback preference order.
  mem::TierId fallback_for(mem::TierId dead) const;

  spark::SparkContext& sc_;
  FaultConfig config_;
  FaultPlan plan_;
  FaultClock clock_;
  FaultStats stats_;
  std::array<bool, 4> offline_{};  ///< by tier index
  std::size_t next_uce_ = 0;       ///< cursor into plan_.uce_thresholds_gib
  mem::NodeId uce_node_ = -1;      ///< churn-watched node (-1: poll off)
  bool started_ = false;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace tsx::fault
