// SparkContext: the engine's root object.
//
// Owns the executors, the DAG scheduler, the shuffle store, the block
// manager and the capacity allocator, all wired to one MachineModel (and
// thus one Simulator). Typed RDD factories are free functions in rdd.hpp
// (parallelize / generate_rdd) so this header stays template-free.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/thread_pool.hpp"
#include "dfs/dfs.hpp"
#include "mem/allocator.hpp"
#include "mem/machine.hpp"
#include "spark/block_manager.hpp"
#include "spark/conf.hpp"
#include "spark/cost_model.hpp"
#include "spark/executor.hpp"
#include "spark/fault_hooks.hpp"
#include "spark/scheduler.hpp"
#include "spark/shuffle.hpp"
#include "spark/tiering_hooks.hpp"

namespace tsx::spark {

class DatasetMemo;

class SparkContext {
 public:
  SparkContext(mem::MachineModel& machine, dfs::Dfs& dfs, SparkConf conf,
               std::uint64_t seed = 42);

  SparkContext(const SparkContext&) = delete;
  SparkContext& operator=(const SparkContext&) = delete;

  mem::MachineModel& machine() { return machine_; }
  dfs::Dfs& dfs() { return dfs_; }
  const SparkConf& conf() const { return conf_; }
  const CostModel& costs() const { return costs_; }

  DAGScheduler& scheduler() { return scheduler_; }
  ShuffleStore& shuffle_store() { return shuffle_store_; }
  BlockManager& block_manager() { return *block_manager_; }
  mem::TieredAllocator& allocator() { return allocator_; }
  std::vector<std::unique_ptr<Executor>>& executors() { return executors_; }

  int next_rdd_id() { return next_rdd_id_++; }
  std::uint64_t job_seed() const { return seed_; }

  /// Virtual dataset scaling (DESIGN.md §3): workloads generate a sample of
  /// the nominal data and scale charged costs by nominal/sample.
  double cost_multiplier() const { return cost_multiplier_; }
  void set_cost_multiplier(double m);

  /// The dataset memo GenerateRDD consults (DESIGN.md §19); nullptr (the
  /// default) generates every partition afresh. The memo is not owned and
  /// must outlive every job of this context.
  void set_dataset_memo(DatasetMemo* memo) { dataset_memo_ = memo; }
  DatasetMemo* dataset_memo() const { return dataset_memo_; }

  /// Total task slots across executors (Spark's default parallelism).
  int default_parallelism() const { return conf_.total_cores(); }

  /// The intra-run task pool (DESIGN.md §11), created lazily on first use
  /// when conf().intra_run_threads > 1; nullptr otherwise. A non-null pool
  /// switches the scheduler's fault-free stages to two-phase
  /// evaluate/commit execution — bit-identical to serial, just faster.
  ThreadPool* task_pool();

  /// Attaches the page-migration observer (tiering::Engine) to the block
  /// manager, the shuffle store and the executors: region lifecycle and
  /// traffic splits. Null (the default) runs the static-placement path bit
  /// for bit.
  void set_tiering(TieringHooks* hooks);
  TieringHooks* tiering() const { return tiering_; }
  /// Attaches the fault observer (fault::Controller) to the shuffle store
  /// and the executors; the scheduler reads it through fault(): crashes,
  /// straggles, reroutes, lineage recovery, retries and speculation. Null
  /// (the default) runs the fault-free path bit for bit.
  void set_fault(FaultHooks* hooks);
  FaultHooks* fault() const { return fault_; }

  /// Attaches the observability recorder to the scheduler and every
  /// executor. Null (the default) is observability off: no spans open and
  /// the engine runs the pre-obs path bit for bit.
  void set_obs(obs::Recorder* recorder);
  obs::Recorder* obs() const { return obs_; }

  /// The memory tier executors are bound to, resolved from the canonical
  /// compute socket.
  mem::TierSpec bound_tier() const {
    return machine_.tier(conf_.cpu_node_bind, conf_.mem_bind);
  }

  Duration now() const { return machine_.simulator().now(); }

 private:
  mem::MachineModel& machine_;
  dfs::Dfs& dfs_;
  SparkConf conf_;
  CostModel costs_;
  std::uint64_t seed_;
  double cost_multiplier_ = 1.0;
  int next_rdd_id_ = 0;
  TieringHooks* tiering_ = nullptr;
  FaultHooks* fault_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  DatasetMemo* dataset_memo_ = nullptr;

  mem::TieredAllocator allocator_;
  ShuffleStore shuffle_store_;
  std::unique_ptr<BlockManager> block_manager_;
  std::vector<std::unique_ptr<Executor>> executors_;
  DAGScheduler scheduler_;
  std::unique_ptr<ThreadPool> task_pool_;
};

}  // namespace tsx::spark
