// DAG scheduler.
//
// Walks an action's lineage, splits it into stages at shuffle dependencies
// (exactly Spark's model: narrow dependencies pipeline into one stage,
// shuffles are barriers), runs map stages in topological order and finally
// the result stage. Task execution is delegated to the executors; the
// scheduler drives the discrete-event simulator until each stage's barrier
// is reached, so a job's simulated duration includes dispatch serialization,
// core occupancy and memory-channel contention. Every stage submits its
// tasks through one launcher (run_tasks): serial stages, the parallel data
// plane's commit and fault recovery differ only in what a task's host does
// and in the fault-mode callbacks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/units.hpp"
#include "obs/span.hpp"
#include "spark/rdd_base.hpp"
#include "spark/task.hpp"
#include "spark/task_effects.hpp"

namespace tsx::spark {

class SparkContext;

struct StageRecord {
  int stage_id = 0;
  std::string label;
  std::size_t tasks = 0;
  Duration start;
  Duration end;
  Duration duration() const { return end - start; }

  /// Peak average bandwidth any memory channel sustained during this stage
  /// (drained bytes / stage duration, max over channels). The direct
  /// observable behind the paper's Fig. 3 claim that the workloads never
  /// saturate memory bandwidth.
  Bandwidth peak_channel_bandwidth;
  /// Name of that channel.
  std::string peak_channel;
};

struct JobMetrics {
  std::string job;
  Duration start;
  Duration end;
  Duration duration() const { return end - start; }
  std::size_t num_stages = 0;
  std::size_t num_tasks = 0;
  TaskCost total_cost;  ///< aggregate charged work over all tasks
  std::vector<StageRecord> stages;
};

/// Per-stage scheduling overrides used by recovery stages (fault mode).
struct StageOptions {
  /// Stage id the task rng streams derive from (-1: the stage's own id).
  /// Recovery stages rerun lost map tasks of an earlier stage and must
  /// reuse its streams to reproduce the buckets byte for byte.
  int rng_stage = -1;
  /// When set, task index i computes partition (*partitions)[i] instead of
  /// partition i — a recovery stage covers only the lost map partitions.
  const std::vector<std::size_t>* partitions = nullptr;
};

class DAGScheduler {
 public:
  explicit DAGScheduler(SparkContext& sc) : sc_(sc) {}

  /// A result task: computes partition `p` of the final RDD and hands the
  /// values to the action (which captures its own output storage).
  using ResultFn = std::function<void(std::size_t p, TaskContext& ctx)>;

  /// Runs all missing ancestor shuffle stages of `final_rdd`, then the
  /// result stage. Drives the simulator; returns when the job's last task
  /// has completed in virtual time.
  JobMetrics run_job(const std::shared_ptr<RddBase>& final_rdd,
                     const ResultFn& result_task,
                     std::size_t result_partitions, const std::string& name);

  /// Stages run so far across all jobs (stage ids are globally unique).
  int stages_run() const { return next_stage_id_; }

  /// Lifetime aggregates over every job this context ever ran — the
  /// authoritative counterpart of the machine's traffic ledger (internal
  /// jobs like sortByKey's sampling pass are included).
  const TaskCost& lifetime_cost() const { return lifetime_cost_; }
  std::size_t jobs_run() const { return jobs_run_; }
  std::size_t tasks_run() const { return tasks_run_; }

  /// Real (wall-clock) seconds spent in task host functions across all
  /// jobs. Never serialized: wall time is hardware noise, and the
  /// bit-identity gates compare serialized results across thread counts.
  /// Its one reader is perfbench's `spark.exec_s`, through
  /// RunResult::host_execute_seconds.
  double host_execute_seconds() const { return host_seconds_; }

 private:
  using TaskFn = std::function<void(std::size_t, TaskContext&)>;

  /// Depth-first lineage walk collecting unexecuted shuffle dependencies,
  /// parents before children. The seen-sets make the walk O(1) per lineage
  /// node — iterative workloads (pagerank) build deep, wide DAGs.
  void collect_shuffles(
      const RddBase& rdd,
      std::vector<std::shared_ptr<ShuffleDependencyBase>>& order,
      std::unordered_set<int>& seen_rdds,
      std::unordered_set<int>& seen_shuffles) const;

  /// Runs one barrier stage of `num_tasks` tasks and returns its record.
  StageRecord run_stage(const std::string& label, std::size_t num_tasks,
                        const TaskFn& task, JobMetrics& metrics,
                        const StageOptions& opts = {});

  /// The one task launcher, the submission/barrier part of run_stage. It
  /// submits every task in partition order with round-robin executor
  /// placement and steps the simulator to the stage barrier. Fault-free
  /// stages with a task pool first evaluate their host functions in
  /// parallel and then commit them in that same submission sequence
  /// (DESIGN.md §11). Under fault hooks it adds per-task retries with
  /// capped exponential backoff, speculative duplicates for stragglers and
  /// live-executor placement.
  void run_tasks(StageRecord& record, obs::SpanId stage_span,
                 std::size_t num_tasks, const TaskFn& task,
                 JobMetrics& metrics, const StageOptions& opts);

  /// Advances virtual time by `d` (framework overhead with no resource use).
  void advance(Duration d);

  SparkContext& sc_;
  TaskCost lifetime_cost_;
  double host_seconds_ = 0.0;
  std::size_t jobs_run_ = 0;
  std::size_t tasks_run_ = 0;
  int next_stage_id_ = 0;
  std::size_t task_counter_ = 0;  ///< round-robin executor assignment
  bool executors_launched_ = false;

  // Recycled parallel-plane buffers: sized to the widest stage seen, so the
  // steady state allocates nothing per stage.
  std::vector<TaskEffects> effects_;
  std::vector<TaskCost> stage_costs_;
  std::vector<double> host_times_;
};

}  // namespace tsx::spark
