// Task cost accounting.
//
// A TaskContext rides along every partition computation. Operators execute
// on host data and *charge* the context with the simulated work they imply:
// cpu seconds, blocking I/O, disk bytes, streaming bytes and dependent
// accesses (latency-bound traffic). After host execution the DAG scheduler
// replays the accumulated TaskCost through the machine model as a cpu phase
// followed by memory flows on the executor's bound tier(s).
//
// Streaming traffic is attributed to an access class — general heap,
// shuffle buffers, or cached blocks — so the engine can bind each class to
// a different memory tier (the "optimal memory tier per access type"
// exploration the paper's Sec. IV-G calls for).
//
// `cost_multiplier` implements virtual scaling: workloads generate a sample
// of the paper's nominal dataset and charge costs scaled up by
// nominal/sample, so large-scale runs simulate faithfully without hosting
// gigabytes (documented in DESIGN.md §3 and EXPERIMENTS.md).
//
// A TaskContext is strictly thread-confined: it is created by (and its rng
// stream derived from) the (job seed, stage, partition) triple, lives on
// whichever thread evaluates the task — a pool worker under the parallel
// data plane (DESIGN.md §11) — and is never shared, so charging needs no
// synchronization in either execution mode.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "spark/cost_model.hpp"

namespace tsx::spark {

/// What kind of memory a streaming transfer touches. Each class can be
/// bound to its own tier (SparkConf::tier_for).
enum class StreamClass : int {
  kHeap = 0,     ///< executor heap: records, object graphs, spills
  kShuffle = 1,  ///< shuffle write buffers and fetched blocks
  kCache = 2,    ///< persisted RDD blocks in the block manager
};

inline constexpr int kNumStreamClasses = 3;
std::string to_string(StreamClass c);

/// What a task computes: a partition of an action's result (the default),
/// or a shuffle's map output — a map stage's task, or the rerun of a lost
/// one. The dataset memo decides by it what to keep (DESIGN.md §19).
enum class TaskKind : int { kResult = 0, kShuffleMap = 1 };

struct TaskCost {
  double cpu_seconds = 0.0;
  double io_seconds = 0.0;  ///< fixed storage latency (seeks, block setup)
  Bytes disk_read;          ///< DFS bytes through the shared storage medium
  Bytes disk_write;
  /// Streaming bytes by access class (index = StreamClass).
  std::array<Bytes, kNumStreamClasses> stream_read_by{};
  std::array<Bytes, kNumStreamClasses> stream_write_by{};
  double dep_reads = 0.0;   ///< latency-bound read accesses (heap class)
  double dep_writes = 0.0;  ///< latency-bound write accesses (heap class)

  Bytes stream_read() const;   ///< sum over classes
  Bytes stream_write() const;
  Bytes stream_read(StreamClass c) const {
    return stream_read_by[static_cast<std::size_t>(c)];
  }
  Bytes stream_write(StreamClass c) const {
    return stream_write_by[static_cast<std::size_t>(c)];
  }

  TaskCost& operator+=(const TaskCost& other);
  bool is_zero() const;
};

class TaskContext {
 public:
  TaskContext(int stage_id, std::size_t partition, const CostModel& costs,
              double cost_multiplier, Rng rng, int executor_id = -1);

  int stage_id() const { return stage_id_; }
  std::size_t partition() const { return partition_; }
  const CostModel& costs() const { return costs_; }
  double cost_multiplier() const { return multiplier_; }
  Rng& rng() { return rng_; }
  /// Executor running this task (-1 when driven outside the scheduler, e.g.
  /// in unit tests). Stores record it as the owner of produced state so a
  /// crash can invalidate exactly what the dead executor held.
  int executor_id() const { return executor_id_; }
  TaskKind kind() const { return kind_; }
  void set_kind(TaskKind kind) { kind_ = kind; }

  /// Charges host-side measured work, scaled by the cost multiplier.
  void charge_cpu(Duration cpu);
  void charge_cpu_ns(double ns) { charge_cpu(Duration::nanos(ns)); }
  void charge_stream_read(Bytes bytes, StreamClass cls = StreamClass::kHeap);
  void charge_stream_write(Bytes bytes, StreamClass cls = StreamClass::kHeap);
  void charge_dep_reads(double accesses);
  void charge_dep_writes(double accesses);

  /// Fixed storage latency (seeks/block setup; scaled).
  void charge_io(Duration io);
  /// Storage bytes moved through the shared disk (scaled). Concurrent tasks
  /// contend for the storage channel, like HDFS readers on one medium.
  void charge_disk_read(Bytes bytes);
  void charge_disk_write(Bytes bytes);

  /// Charges raw (unscaled) work — for per-task fixed overheads that do not
  /// grow with the virtual dataset.
  void charge_cpu_unscaled(Duration cpu);

  /// Folds an already-scaled cost into this task — the bill of a nested
  /// recovery computation (a lost shuffle map partition recomputed inside a
  /// reduce task's fetch) lands on the fetching task.
  void absorb(const TaskCost& cost) { cost_ += cost; }

  const TaskCost& cost() const { return cost_; }

 private:
  int stage_id_;
  std::size_t partition_;
  const CostModel& costs_;
  double multiplier_;
  Rng rng_;
  int executor_id_;
  TaskKind kind_ = TaskKind::kResult;
  TaskCost cost_;
};

}  // namespace tsx::spark
